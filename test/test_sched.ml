(* The scheduler's process table: the live run list and the per-parent
   child index.  A qcheck oracle runs random process mixes under
   [Sched] and under a reference that re-derives every pass from the
   full pid-sorted table (checking the index against that table as it
   goes), and requires identical dispatch order, consoles, deadlock
   reports and billed costs.  A scaling test shows
   that exited processes cost a pass and a wait nothing. *)

open Harness
module Stats = Hemlock_util.Stats
module Sched = Hemlock_os.Sched

(* ----- process mixes ----- *)

let isa_sources =
  [|
    (* fork three children, reap them (lowest pid first), then -ECHILD *)
    {|
int main() {
  int pid;
  int n;
  n = 0;
  while (n < 3) {
    pid = fork();
    if (pid == 0) {
      yield();
      print_str("c");
      exit(n + 1);
    }
    n = n + 1;
  }
  n = 0;
  while (n < 3) {
    print_int(wait());
    print_str(" ");
    n = n + 1;
  }
  print_int(wait());
  return 0;
}|};
    (* nested fork: the child waits for its own child *)
    {|
int main() {
  int pid;
  pid = fork();
  if (pid == 0) {
    pid = fork();
    if (pid == 0) {
      yield();
      exit(3);
    }
    print_int(wait());
    exit(5);
  }
  yield();
  print_int(wait());
  return 0;
}|};
    (* a top-level spinner *)
    {|
int main() {
  int i;
  i = 0;
  while (i < 4) {
    yield();
    i = i + 1;
  }
  print_str("s");
  return 7;
}|};
    (* exits before its children: they stay zombies under a zombie *)
    {|
int main() {
  int pid;
  pid = fork();
  if (pid == 0) {
    yield();
    yield();
    exit(2);
  }
  pid = fork();
  if (pid == 0) {
    exit(4);
  }
  return 1;
}|};
  |]

(* Linked once; every kernel gets a copy of the same a.out bytes. *)
let images =
  lazy
    (let k, _ = boot () in
     Fs.mkdir (Kernel.fs k) "/home/t";
     Array.mapi
       (fun i src ->
         let name = Printf.sprintf "p%d" i in
         install_c k (Printf.sprintf "/home/t/%s.o" name) src;
         ignore (link k ~dir:"/home/t" ~specs:[ (name ^ ".o", Sharing.Static_private) ] name);
         Fs.read_file (Kernel.fs k) ("/home/t/" ^ name))
       isa_sources)

type job =
  | Yielder of int * int  (** yields n times, logs, exits with a code *)
  | Isa of int  (** one of [isa_sources] *)
  | Waiter of job list  (** spawns its children, then waitpid's each *)
  | Flag_wait of int  (** blocks until flag i is set *)
  | Flag_set of int * int  (** yields n times, then sets flag i *)
  | Daemon  (** blocked forever, but a daemon *)

let rec show_job = function
  | Yielder (n, c) -> Printf.sprintf "Yielder(%d,%d)" n c
  | Isa i -> Printf.sprintf "Isa %d" i
  | Waiter js -> "Waiter[" ^ String.concat ";" (List.map show_job js) ^ "]"
  | Flag_wait f -> Printf.sprintf "Flag_wait %d" f
  | Flag_set (n, f) -> Printf.sprintf "Flag_set(%d,%d)" n f
  | Daemon -> "Daemon"

let show_batches bs =
  String.concat " | " (List.map (fun b -> String.concat ", " (List.map show_job b)) bs)

let flags = 3

let rec gen_job depth =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (3, map2 (fun n c -> Yielder (n, c)) (int_bound 3) (int_bound 9));
        (4, map (fun i -> Isa i) (int_bound (Array.length isa_sources - 1)));
        (1, map (fun f -> Flag_wait f) (int_bound (flags - 1)));
        (2, map2 (fun n f -> Flag_set (n, f)) (int_bound 3) (int_bound (flags - 1)));
        (1, pure Daemon);
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [ (3, leaf); (1, map (fun js -> Waiter js) (list_size (int_range 1 3) (gen_job (depth - 1)))) ]

(* Batches are spawned and run one after another, so later batches run
   beside the zombies (and any deadlocked processes) of earlier ones. *)
let gen_batches = QCheck2.Gen.(list_size (int_range 1 3) (list_size (int_range 1 5) (gen_job 2)))

let rec spawn k ~flags ~log ?parent job =
  let native name body = Kernel.spawn_native k ~name ?parent body in
  match job with
  | Yielder (n, code) ->
    native "yielder" (fun _ p ->
        for _ = 1 to n do
          Proc.yield ()
        done;
        Printf.bprintf log "y%d " p.Proc.pid;
        code)
  | Isa i -> Kernel.spawn_exec k ?parent (Printf.sprintf "/home/t/p%d" i)
  | Waiter js ->
    native "waiter" (fun k p ->
        List.iter (fun j -> ignore (spawn k ~flags ~log ~parent:p.Proc.pid j)) js;
        List.iter
          (fun _ ->
            let pid, code = Kernel.waitpid k p in
            Printf.bprintf log "w%d:%d=%d " p.Proc.pid pid code)
          js;
        0)
  | Flag_wait f ->
    native "flag-wait" (fun _ p ->
        Proc.wait_until ~why:(Printf.sprintf "flag %d" f) (fun () -> flags.(f));
        Printf.bprintf log "f%d:%d " p.Proc.pid f;
        0)
  | Flag_set (n, f) ->
    native "flag-set" (fun _ _ ->
        for _ = 1 to n do
          Proc.yield ()
        done;
        flags.(f) <- true;
        0)
  | Daemon ->
    let d = native "daemon" (fun _ _ -> Proc.wait_until ~why:"forever" (fun () -> false); 0) in
    Kernel.set_daemon k d;
    d

(* ----- the reference: today's algorithm ----- *)

(* Every pass re-derives the full pid-sorted table, zombies included,
   and filters it — the scheduler before the live run list and child
   index.  It also checks, each pass, that the kernel's index and run
   list agree with that table. *)
module Reference = struct
  let blocked k =
    List.filter_map
      (fun p ->
        match p.Proc.state with
        | Proc.Blocked { why; _ } when not (Sched.is_daemon (Kernel.sched k) p.Proc.pid) ->
          Some { Sched.b_pid = p.Proc.pid; b_comm = p.Proc.comm; b_why = why }
        | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> None)
      (Kernel.processes k)

  let check_index k =
    let s = Kernel.sched k in
    let table = Kernel.processes k in
    let pids ps = List.map (fun p -> p.Proc.pid) ps in
    List.iter
      (fun parent ->
        let want = List.filter (fun p -> p.Proc.parent = parent) table in
        if pids (Sched.children s parent) <> pids want then
          Alcotest.failf "child index of pid %d disagrees with the table" parent;
        let pid = Option.map (fun p -> p.Proc.pid) in
        if pid (Sched.zombie_child s parent) <> pid (List.find_opt Proc.is_zombie want) then
          Alcotest.failf "pid %d would reap the wrong zombie" parent)
      (0 :: pids table);
    if pids (Sched.live s) <> pids (List.filter (fun p -> not (Proc.is_zombie p)) table) then
      Alcotest.fail "run list disagrees with the table"

  let step k ~ticks ~run_one =
    check_index k;
    List.iter
      (fun p ->
        match p.Proc.state with
        | Proc.Blocked { cond; _ } when cond () -> p.Proc.state <- Proc.Runnable
        | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> ())
      (Kernel.processes k);
    match List.filter (fun p -> p.Proc.state = Proc.Runnable) (Kernel.processes k) with
    | [] -> if blocked k = [] then `Done else `Idle
    | ps ->
      List.iter
        (fun p ->
          if p.Proc.state = Proc.Runnable then begin
            incr ticks;
            (Stats.cur ()).context_switches <- (Stats.cur ()).context_switches + 1;
            run_one p
          end)
        ps;
      `Progress

  let run k ~ticks ~max_ticks ~run_one ~on_budget =
    let deadline = !ticks + max_ticks in
    let rec loop () =
      if !ticks > deadline then on_budget ()
      else
        match step k ~ticks ~run_one with
        | `Progress -> loop ()
        | `Done -> ()
        | `Idle -> raise (Sched.Deadlock (blocked k))
    in
    loop ()
end

(* ----- the oracle ----- *)

exception Budget

type observed = {
  dispatched : int list;
  outcome : [ `Done | `Deadlock of Sched.blocked list | `Budget ];
  console : string;
  log : string;
  billed : int * int * int * int * int;
  ticks : int;
}

let billed d =
  (d.Stats.instructions, d.Stats.faults, d.Stats.syscalls, d.Stats.context_switches, Stats.cycles d)

(* Run every batch on a fresh kernel with one scheduler; one observation
   per batch. *)
let observe ~reference batches =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  Array.iteri (fun i img -> Fs.write_file fs (Printf.sprintf "/home/t/p%d" i) img) (Lazy.force images);
  let flags = Array.make flags false in
  let ticks = ref 0 in
  List.map
    (fun batch ->
      let log = Buffer.create 64 in
      List.iter (fun j -> ignore (spawn k ~flags ~log j)) batch;
      Kernel.console_clear k;
      let dispatched = ref [] in
      let run_one p =
        dispatched := p.Proc.pid :: !dispatched;
        Kernel.run_one k p
      in
      let on_budget () = raise Budget in
      let t0 = if reference then !ticks else Sched.ticks (Kernel.sched k) in
      let outcome, d =
        Stats.measure (fun () ->
            match
              if reference then Reference.run k ~ticks ~max_ticks:20_000 ~run_one ~on_budget
              else Sched.run ~max_ticks:20_000 (Kernel.sched k) ~run_one ~on_budget
            with
            | () -> `Done
            | exception Sched.Deadlock bs -> `Deadlock bs
            | exception Budget -> `Budget)
      in
      {
        dispatched = List.rev !dispatched;
        outcome;
        console = Kernel.console k;
        log = Buffer.contents log;
        billed = billed d;
        ticks = (if reference then !ticks else Sched.ticks (Kernel.sched k)) - t0;
      })
    batches

let show_observed o =
  Printf.sprintf "dispatched=[%s] outcome=%s console=%S log=%S ticks=%d"
    (String.concat ";" (List.map string_of_int o.dispatched))
    (match o.outcome with
    | `Done -> "done"
    | `Budget -> "budget"
    | `Deadlock bs -> "deadlock: " ^ Sched.deadlock_message bs)
    o.console o.log o.ticks

let sched_matches_reference batches =
  let got = observe ~reference:false batches in
  let want = observe ~reference:true batches in
  List.iteri
    (fun i (g, w) ->
      if g <> w then
        QCheck2.Test.fail_reportf "batch %d:\n  sched     %s\n  reference %s" i
          (show_observed g) (show_observed w))
    (List.combine got want);
  true

(* ----- scaling with exited processes ----- *)

(* Run the fork program (8 children, each reaped) beside a native that
   waitpid's two children of its own; returns the console, the billed
   costs and the scheduler's work count. *)
let fork_round k =
  let s = Kernel.sched k in
  Kernel.console_clear k;
  let v0 = Sched.visits s in
  let prog = Kernel.spawn_exec k "/home/perf/forkprog" in
  ignore
    (Kernel.spawn_native k ~name:"reaper" (fun k p ->
         for c = 1 to 2 do
           ignore (Kernel.spawn_native k ~name:"kid" ~parent:p.Proc.pid (fun _ _ -> c))
         done;
         let a = Kernel.waitpid k p in
         let b = Kernel.waitpid k p in
         check_bool "reaps in pid order" true (fst a < fst b);
         0));
  let (), d = Stats.measure (fun () -> Kernel.run k) in
  check_int "fork program exits cleanly" 0 (exit_code prog);
  (Kernel.console k, billed d, Sched.visits s - v0)

let fork_kernel () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/perf";
  install_c k "/home/perf/fork.o"
    {|
int main() {
  int *p;
  int i;
  int pid;
  int kids;
  p = sbrk(262144);
  i = 0;
  while (i < 65536) { p[i] = i; i = i + 1024; }
  kids = 0;
  while (kids < 8) {
    pid = fork();
    if (pid == 0) {
      p[0] = kids + 1;
      exit(0);
    }
    wait();
    kids = kids + 1;
  }
  print_int(p[0]);
  return 0;
}|};
  ignore (link k ~dir:"/home/perf" ~specs:[ ("fork.o", Sharing.Static_private) ] "forkprog");
  k

let exited = 5_000

let zombies_cost_nothing () =
  let fresh = fork_kernel () in
  let loaded = fork_kernel () in
  let s = Kernel.sched loaded in
  for _ = 1 to exited do
    ignore (Kernel.spawn_native loaded ~name:"gone" (fun _ _ -> 0))
  done;
  Kernel.run loaded;
  check_int "run list empty" 0 (List.length (Sched.live s));
  check_bool "zombies stay in the table" true (List.length (Kernel.processes loaded) >= exited);
  check_int "top-level children indexed" exited
    (List.length (List.filter (fun p -> p.Proc.comm = "gone") (Sched.children s 0)));
  let v0 = Sched.visits s in
  check_bool "a pass over zombies only" true (Kernel.step loaded = `Done);
  check_int "a pass touches no zombie" v0 (Sched.visits s);
  let console, cost, visits = fork_round fresh in
  let console', cost', visits' = fork_round loaded in
  check_string "console" console console';
  check_bool "billed costs" true (cost = cost');
  check_int "scheduler work (live processes and own children only)" visits visits';
  check_bool "zombies still unreaped" true (List.length (Kernel.processes loaded) >= exited)

let suite =
  [
    prop "sched: run list + child index = full-table reference" ~count:40
      ~print:show_batches gen_batches sched_matches_reference;
    test "sched: 5,000 exited processes cost a pass and a wait nothing" zombies_cost_nothing;
  ]
