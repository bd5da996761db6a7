type failure = Eio | Enospc | Eagain

exception Injected of { site : string; failure : failure }
exception Crash of { site : string }

type action = Fail of failure | Crash_here

type arm = { at : int; act : action }

(* The armed plan is written by [configure]/[clear] on the spawning
   domain only, before any worker domain runs, and is read-only while
   domains execute — so the table needs no lock.  Hit {e counters} are
   per-domain (a DLS-keyed table): each domain owns an independent
   deterministic stream of site ordinals, so a plan like "site@3=crash"
   fires at the third hit {e on that domain}, reproducible under any
   fixed machine-to-domain partition. *)
let armed : (string, arm list) Hashtbl.t = Hashtbl.create 16

let counts_key : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let counts () = Domain.DLS.get counts_key

let enabled = ref false

let active () = !enabled

let hits site = Option.value ~default:0 (Hashtbl.find_opt (counts ()) site)

let clear () =
  enabled := false;
  Hashtbl.reset armed;
  Hashtbl.reset (counts ())

let failure_name = function Eio -> "eio" | Enospc -> "enospc" | Eagain -> "eagain"

let action_of_string = function
  | "eio" -> Fail Eio
  | "enospc" -> Fail Enospc
  | "eagain" -> Fail Eagain
  | "crash" -> Crash_here
  | s -> invalid_arg (Printf.sprintf "Fault.configure: unknown action %S" s)

(* "site@N=kind" terms joined by ',' or ';'. *)
let configure plan =
  clear ();
  let terms =
    List.concat_map (String.split_on_char ';') (String.split_on_char ',' plan)
  in
  let add term =
    let term = String.trim term in
    if term <> "" then begin
      match String.index_opt term '@' with
      | None -> invalid_arg (Printf.sprintf "Fault.configure: missing '@' in %S" term)
      | Some i -> (
        let site = String.sub term 0 i in
        let rest = String.sub term (i + 1) (String.length term - i - 1) in
        match String.index_opt rest '=' with
        | None -> invalid_arg (Printf.sprintf "Fault.configure: missing '=' in %S" term)
        | Some j ->
          let at =
            match int_of_string_opt (String.sub rest 0 j) with
            | Some n when n >= 1 -> n
            | Some _ | None ->
              invalid_arg (Printf.sprintf "Fault.configure: bad ordinal in %S" term)
          in
          let act = action_of_string (String.sub rest (j + 1) (String.length rest - j - 1)) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt armed site) in
          Hashtbl.replace armed site ({ at; act } :: prev))
    end
  in
  List.iter add terms;
  enabled := Hashtbl.length armed > 0

(* The sites where a crash interrupts a multi-step /shared mutation —
   the interesting half of the state space for the fsck property — plus
   the simulated network's per-datagram send/deliver points, where an
   injected error loses the datagram and a crash kills the machine
   mid-transmission. *)
let default_sites =
  [|
    "fs.create"; "fs.create.mid"; "fs.create.commit"; "fs.write"; "fs.append";
    "fs.rename"; "fs.rename.mid"; "fs.rename.commit"; "fs.unlink"; "fs.unlink.mid";
    "mod.create"; "mod.create.mid"; "fs.pageout"; "net.send"; "net.deliver";
    "fs.stable";
  |]

let configure_random ?(sites = default_sites) seed =
  clear ();
  let prng = Prng.create ~seed in
  let arms = 1 + Prng.int prng 2 in
  for _ = 1 to arms do
    let site = Prng.choose prng sites in
    let at = 1 + Prng.int prng 8 in
    let act =
      (* crashes half the time; the rest split across the errnos *)
      if Prng.bool prng then Crash_here
      else Fail [| Eio; Enospc; Eagain |].(Prng.int prng 3)
    in
    let prev = Option.value ~default:[] (Hashtbl.find_opt armed site) in
    Hashtbl.replace armed site ({ at; act } :: prev)
  done;
  enabled := true

let hit site =
  if !enabled then begin
    let n = hits site + 1 in
    Hashtbl.replace (counts ()) site n;
    match Hashtbl.find_opt armed site with
    | None -> ()
    | Some arms -> (
      match List.find_opt (fun a -> a.at = n) arms with
      | None -> ()
      | Some { act; _ } -> (
        (Stats.cur ()).faults_injected <- (Stats.cur ()).faults_injected + 1;
        match act with
        | Fail failure -> raise (Injected { site; failure })
        | Crash_here ->
          (* the machine stops: nothing injects during the unwind *)
          enabled := false;
          raise (Crash { site })))
  end

(* Environment-driven arming, so whole binaries (the CI fault sweep, the
   golden-transcript runs) can inject without code changes. *)
let () =
  match Env.string "HEMLOCK_FAULT_PLAN" with
  | Some plan -> configure plan
  | None -> Option.iter configure_random (Env.int "HEMLOCK_FAULT_SEED")
