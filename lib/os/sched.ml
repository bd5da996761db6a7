module Stats = Hemlock_util.Stats

type blocked = { b_pid : int; b_comm : string; b_why : string }

exception Deadlock of blocked list

let deadlock_message blocked =
  String.concat ", "
    (List.map
       (fun b -> Printf.sprintf "pid %d (%s) waiting on %s" b.b_pid b.b_comm b.b_why)
       blocked)

let () =
  Printexc.register_printer (function
    | Deadlock blocked -> Some ("Deadlock: " ^ deadlock_message blocked)
    | _ -> None)

type t = {
  proc_table : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mutable last_added : int;
  daemons : (int, unit) Hashtbl.t;
  mutable tick_count : int;
  (* The run list: processes not yet exited, in pid order.  Zombies are
     never run or woken, so a pass walks only this list and drops the
     zombies it meets; they stay in [proc_table] until reaped.  Pids are
     added in increasing order, so [born] (added since the last walk,
     newest first) always sorts after [live]. *)
  mutable live : Proc.t list;
  mutable born : Proc.t list;
  (* parent pid -> its unreaped children, newest first *)
  kids : (int, Proc.t list) Hashtbl.t;
  mutable visits : int;
}

let create () =
  {
    proc_table = Hashtbl.create 32;
    next_pid = 1;
    last_added = 0;
    daemons = Hashtbl.create 8;
    tick_count = 0;
    live = [];
    born = [];
    kids = Hashtbl.create 32;
    visits = 0;
  }

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let kids_of t pid = Option.value (Hashtbl.find_opt t.kids pid) ~default:[]

let add t proc =
  let pid = proc.Proc.pid in
  assert (pid > t.last_added);
  t.last_added <- pid;
  Hashtbl.replace t.proc_table pid proc;
  t.born <- proc :: t.born;
  Hashtbl.replace t.kids proc.Proc.parent (proc :: kids_of t proc.Proc.parent)

(* [proc] is a zombie: the next walk drops it from the run list. *)
let drop_zombie t proc =
  assert (Proc.is_zombie proc);
  Hashtbl.remove t.proc_table proc.Proc.pid;
  Hashtbl.remove t.daemons proc.Proc.pid

let set_kids t pid = function
  | [] -> Hashtbl.remove t.kids pid
  | kids -> Hashtbl.replace t.kids pid kids

let remove t pid =
  match Hashtbl.find_opt t.proc_table pid with
  | None -> ()
  | Some proc ->
    drop_zombie t proc;
    set_kids t proc.Proc.parent
      (List.filter (fun p -> p != proc) (kids_of t proc.Proc.parent))

let remove_zombie_children t pid =
  let zombies, live = List.partition Proc.is_zombie (kids_of t pid) in
  List.iter (drop_zombie t) zombies;
  set_kids t pid live;
  zombies

let find t pid = Hashtbl.find_opt t.proc_table pid

let processes t =
  List.sort
    (fun a b -> compare a.Proc.pid b.Proc.pid)
    (Hashtbl.fold (fun _ p acc -> p :: acc) t.proc_table [])

(* Returns the list itself when nothing in it has exited, so a steady
   pass allocates nothing here. *)
let rec drop_zombies t = function
  | [] -> []
  | p :: rest as l ->
    t.visits <- t.visits + 1;
    let rest' = drop_zombies t rest in
    if Proc.is_zombie p then rest' else if rest' == rest then l else p :: rest'

let live t =
  let ps = drop_zombies t t.live in
  let ps = match t.born with [] -> ps | born -> ps @ drop_zombies t (List.rev born) in
  t.live <- ps;
  t.born <- [];
  ps

let children t pid = List.rev (kids_of t pid)

let has_children t pid = Hashtbl.mem t.kids pid

let zombie_child t pid =
  (* newest first, so the last zombie seen has the lowest pid *)
  List.fold_left
    (fun found p ->
      t.visits <- t.visits + 1;
      if Proc.is_zombie p then Some p else found)
    None (kids_of t pid)

let visits t = t.visits

let set_daemon t proc = Hashtbl.replace t.daemons proc.Proc.pid ()

let is_daemon t pid = Hashtbl.mem t.daemons pid

let ticks t = t.tick_count

let blocked_nondaemons t =
  List.filter_map
    (fun p ->
      match p.Proc.state with
      | Proc.Blocked { why; _ } when not (is_daemon t p.Proc.pid) ->
        Some { b_pid = p.Proc.pid; b_comm = p.Proc.comm; b_why = why }
      | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> None)
    (live t)

(* Wake every blocked process whose condition holds and return the
   runnable ones, in pid order.  Only the process itself changes state,
   so this equals a full unblock pass followed by a runnable filter. *)
let wake t =
  List.filter
    (fun p ->
      match p.Proc.state with
      | Proc.Runnable -> true
      | Proc.Blocked { cond; _ } when cond () ->
        p.Proc.state <- Proc.Runnable;
        true
      | Proc.Blocked _ | Proc.Zombie _ -> false)
    (live t)

let bill_quantum t =
  t.tick_count <- t.tick_count + 1;
  (Stats.cur ()).context_switches <- (Stats.cur ()).context_switches + 1

(* One scheduler pass.  [run_one] gives a runnable process its quantum;
   the caller (Kernel) owns what a quantum means. *)
let step t ~run_one =
  match wake t with
  | [] -> if blocked_nondaemons t = [] then `Done else `Idle
  | ps ->
    List.iter
      (fun p ->
        if p.Proc.state = Proc.Runnable then begin
          bill_quantum t;
          run_one p
        end)
      ps;
    `Progress

(* One parallel scheduler pass.  Billing (ticks, context switches) for
   every dispatched quantum happens up front on the calling domain —
   the same totals as the sequential pass, in a deterministic place —
   and [run_many] then executes the whole runnable batch however the
   kernel decides to spread it over domains. *)
let step_par t ~run_many =
  match wake t with
  | [] -> if blocked_nondaemons t = [] then `Done else `Idle
  | ps ->
    List.iter (fun _ -> bill_quantum t) ps;
    run_many ps;
    `Progress

let run ?(max_ticks = 2_000_000) t ~run_one ~on_budget =
  let deadline = t.tick_count + max_ticks in
  let rec loop () =
    if t.tick_count > deadline then on_budget ()
    else
      match step t ~run_one with
      | `Progress -> loop ()
      | `Done -> ()
      | `Idle -> raise (Deadlock (blocked_nondaemons t))
  in
  loop ()
