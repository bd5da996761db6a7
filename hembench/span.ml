(* Wall-time spans around the benchmark's own calls into each layer's
   public functions, with Stats and Gc deltas taken at the same
   boundaries.  Spans stay in memory and are written out when the run
   ends.  With tracing off a span costs one branch.

   A span's name is "<layer>.<call>"; its self time is its duration
   minus the part its direct children cover. *)

module Stats = Hemlock_util.Stats

let now () = Monotonic_clock.now ()

let on = ref false

(* The op the benchmark is running; -1 during set-up and end checks. *)
let op = ref (-1)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  sp_op : int;
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable child_ns : int64;
  mutable stats : Stats.t;  (** counter delta over the span *)
  mutable minor_words : float;
}

let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let duration s = Int64.sub s.end_ns s.start_ns
let self_ns s = Int64.sub (duration s) s.child_ns

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let close s s0 w0 =
  s.end_ns <- now ();
  s.stats <- Stats.diff ~before:s0 ~after:(Stats.snapshot ());
  s.minor_words <- Gc.minor_words () -. w0;
  stack := List.tl !stack;
  (match !stack with
  | p :: _ -> p.child_ns <- Int64.add p.child_ns (duration s)
  | [] -> ());
  recorded := s :: !recorded

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s0 = Stats.snapshot () and w0 = Gc.minor_words () in
    let s =
      {
        id = !next_id;
        parent;
        sp_op = !op;
        name;
        start_ns = now ();
        end_ns = 0L;
        child_ns = 0L;
        stats = s0;
        minor_words = 0.;
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect ~finally:(fun () -> close s s0 w0) f
  end

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let spans () = List.rev !recorded

(* Only the counters that moved, to keep the written trace small. *)
let nonzero_stats st =
  let body = Stats.to_json st in
  let body = String.sub body 2 (String.length body - 4) in
  String.split_on_char ',' body
  |> List.map String.trim
  |> List.filter (fun kv -> not (String.ends_with ~suffix:": 0" kv))
  |> String.concat ", "

let write spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \"start_ns\": %Ld, \
         \"end_ns\": %Ld, \"self_ns\": %Ld, \"minor_words\": %.0f, \"stats\": {%s}}\n"
        s.id s.parent s.sp_op s.name s.start_ns s.end_ns (self_ns s) s.minor_words
        (nonzero_stats s.stats))
    spans;
  close_out oc
