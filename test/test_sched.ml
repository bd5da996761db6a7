(* The scheduler's process table: the live run list, the per-parent
   child index and the reaping rule.  A qcheck oracle runs random
   process mixes under [Sched] and under a reference that re-derives
   every pass from its own model of the pid table (checking the index
   against the kernel's table as it goes, and the table against the
   model after every quantum), and requires identical dispatch order,
   consoles, deadlock reports, billed costs and pid tables.  Scaling
   tests show that exited processes cost a pass and a wait nothing, and
   that exited programs leave nothing in the pid table or the pager
   registry. *)

open Harness
module Stats = Hemlock_util.Stats
module Sched = Hemlock_os.Sched
module Vm_object = Hemlock_vm.Vm_object

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
  | Leaver of int * job list
      (** spawns its children, yields n times, exits without waiting *)
  | Flag_wait of int  (** blocks until flag i is set *)
  | Flag_set of int * int  (** yields n times, then sets flag i *)
  | Daemon  (** blocked forever, but a daemon *)

let rec show_job = function
  | Yielder (n, c) -> Printf.sprintf "Yielder(%d,%d)" n c
  | Isa i -> Printf.sprintf "Isa %d" i
  | Waiter js -> "Waiter[" ^ String.concat ";" (List.map show_job js) ^ "]"
  | Leaver (n, js) ->
    Printf.sprintf "Leaver(%d)[%s]" n (String.concat ";" (List.map show_job js))
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
    let kids = list_size (int_range 1 3) (gen_job (depth - 1)) in
    frequency
      [
        (4, leaf);
        (1, map (fun js -> Waiter js) kids);
        (1, map2 (fun n js -> Leaver (n, js)) (int_bound 3) kids);
      ]

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
  | Leaver (n, js) ->
    native "leaver" (fun k p ->
        List.iter (fun j -> ignore (spawn k ~flags ~log ~parent:p.Proc.pid j)) js;
        for _ = 1 to n do
          Proc.yield ()
        done;
        Printf.bprintf log "l%d " p.Proc.pid;
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

(* ----- the reference ----- *)

(* Every pass re-derives its process list from a model of the pid table
   and filters it — the scheduler before the live run list and child
   index.  The model applies the reaping rule itself: a process that
   exits takes its zombie children with it, and goes too unless its
   parent is a live process in the table; a process that waits may only
   take its own zombie children, lowest pid first.  After every quantum
   the kernel's table must hold exactly the model's pids, and each pass
   checks the kernel's index and run list against that table. *)
module Reference = struct
  type model = { table : (int, Proc.t) Hashtbl.t; mutable top : int  (** highest pid seen *) }

  let model () = { table = Hashtbl.create 64; top = 0 }

  let procs m =
    List.sort
      (fun a b -> compare a.Proc.pid b.Proc.pid)
      (Hashtbl.fold (fun _ p acc -> p :: acc) m.table [])

  let pids ps = List.map (fun p -> p.Proc.pid) ps

  (* Pids are handed out in increasing order: anything above [top] is
     new, anything at or below it must already be modelled. *)
  let adopt k m =
    List.iter
      (fun p ->
        if p.Proc.pid > m.top then begin
          Hashtbl.replace m.table p.Proc.pid p;
          m.top <- p.Proc.pid
        end)
      (Kernel.processes k)

  let ints l = String.concat ";" (List.map string_of_int l)

  let check_table k m =
    if pids (Kernel.processes k) <> pids (procs m) then
      Alcotest.failf "pid table [%s], reaping rule wants [%s]"
        (ints (pids (Kernel.processes k))) (ints (pids (procs m)))

  let zombie_kids m pid =
    List.filter (fun c -> c.Proc.parent = pid && Proc.is_zombie c) (procs m)

  (* [p] just had a quantum; it was runnable before it. *)
  let after_quantum k m p =
    adopt k m;
    let gone pid = Kernel.find_proc k pid = None in
    let exited = Proc.is_zombie p in
    let must_go =
      if not exited then []
      else
        let parent_live =
          match Hashtbl.find_opt m.table p.Proc.parent with
          | Some q -> not (Proc.is_zombie q)
          | None -> false
        in
        pids (zombie_kids m p.Proc.pid) @ if parent_live then [] else [ p.Proc.pid ]
    in
    List.iter
      (fun pid -> if not (gone pid) then Alcotest.failf "pid %d should have been reaped" pid)
      must_go;
    (* anything else that left was reaped by [p]'s waits *)
    let waited =
      List.filter (fun q -> gone q.Proc.pid && not (List.mem q.Proc.pid must_go)) (procs m)
    in
    let kids = zombie_kids m p.Proc.pid in
    if pids waited <> List.filteri (fun i _ -> i < List.length waited) (pids kids) then
      Alcotest.failf "pid %d reaped [%s], not its lowest-pid zombie children" p.Proc.pid
        (ints (pids waited));
    List.iter (fun q -> Hashtbl.remove m.table q.Proc.pid) waited;
    List.iter (Hashtbl.remove m.table) must_go;
    check_table k m

  let blocked k m =
    List.filter_map
      (fun p ->
        match p.Proc.state with
        | Proc.Blocked { why; _ } when not (Sched.is_daemon (Kernel.sched k) p.Proc.pid) ->
          Some { Sched.b_pid = p.Proc.pid; b_comm = p.Proc.comm; b_why = why }
        | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> None)
      (procs m)

  let check_index k =
    let s = Kernel.sched k in
    let table = Kernel.processes k in
    List.iter
      (fun parent ->
        let want = List.filter (fun p -> p.Proc.parent = parent) table in
        if pids (Sched.children s parent) <> pids want then
          Alcotest.failf "child index of pid %d disagrees with the table" parent;
        let pid = Option.map (fun p -> p.Proc.pid) in
        if pid (Sched.zombie_child s parent) <> pid (List.find_opt Proc.is_zombie want) then
          Alcotest.failf "pid %d would reap the wrong zombie" parent)
      (List.sort_uniq compare (0 :: pids table @ List.map (fun p -> p.Proc.parent) table));
    if pids (Sched.live s) <> pids (List.filter (fun p -> not (Proc.is_zombie p)) table) then
      Alcotest.fail "run list disagrees with the table"

  let step k m ~ticks ~run_one =
    check_index k;
    List.iter
      (fun p ->
        match p.Proc.state with
        | Proc.Blocked { cond; _ } when cond () -> p.Proc.state <- Proc.Runnable
        | Proc.Blocked _ | Proc.Runnable | Proc.Zombie _ -> ())
      (procs m);
    match List.filter (fun p -> p.Proc.state = Proc.Runnable) (procs m) with
    | [] -> if blocked k m = [] then `Done else `Idle
    | ps ->
      List.iter
        (fun p ->
          if p.Proc.state = Proc.Runnable then begin
            incr ticks;
            (Stats.cur ()).context_switches <- (Stats.cur ()).context_switches + 1;
            run_one p;
            after_quantum k m p
          end)
        ps;
      `Progress

  let run k m ~ticks ~max_ticks ~run_one ~on_budget =
    adopt k m;
    check_table k m;
    let deadline = !ticks + max_ticks in
    let rec loop () =
      if !ticks > deadline then on_budget ()
      else
        match step k m ~ticks ~run_one with
        | `Progress -> loop ()
        | `Done -> ()
        | `Idle -> raise (Sched.Deadlock (blocked k m))
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
  table : int list;  (** the pid table after the batch *)
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
  let model = Reference.model () in
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
              if reference then
                Reference.run k model ~ticks ~max_ticks:20_000 ~run_one ~on_budget
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
        table = Reference.pids (Kernel.processes k);
      })
    batches

let show_observed o =
  let ints = Reference.ints in
  Printf.sprintf "dispatched=[%s] outcome=%s console=%S log=%S ticks=%d table=[%s]"
    (ints o.dispatched)
    (match o.outcome with
    | `Done -> "done"
    | `Budget -> "budget"
    | `Deadlock bs -> "deadlock: " ^ Sched.deadlock_message bs)
    o.console o.log o.ticks (ints o.table)

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

(* A live native daemon that never waits: the parent that keeps its
   exited children in the table as zombies. *)
let parked k =
  let p =
    Kernel.spawn_native k ~name:"parked" (fun _ _ ->
        Proc.wait_until ~why:"never" (fun () -> false);
        0)
  in
  Kernel.set_daemon k p;
  p

let zombies_cost_nothing () =
  let fresh = fork_kernel () in
  let loaded = fork_kernel () in
  let s = Kernel.sched loaded in
  ignore (parked fresh);
  let parent = parked loaded in
  for _ = 1 to exited do
    ignore (Kernel.spawn_native loaded ~name:"gone" ~parent:parent.Proc.pid (fun _ _ -> 0))
  done;
  Kernel.run fresh;
  Kernel.run loaded;
  check_bool "run list holds only the parent" true
    (List.map (fun p -> p.Proc.pid) (Sched.live s) = [ parent.Proc.pid ]);
  check_bool "zombies stay in the table" true (List.length (Kernel.processes loaded) >= exited);
  check_int "the parent's children indexed" exited
    (List.length
       (List.filter (fun p -> p.Proc.comm = "gone") (Sched.children s parent.Proc.pid)));
  let pass k =
    let s = Kernel.sched k in
    let v0 = Sched.visits s in
    check_bool "a pass over zombies and the parked parent only" true (Kernel.step k = `Done);
    Sched.visits s - v0
  in
  check_int "a pass touches no zombie" (pass fresh) (pass loaded);
  let console, cost, visits = fork_round fresh in
  let console', cost', visits' = fork_round loaded in
  check_string "console" console console';
  check_bool "billed costs" true (cost = cost');
  check_int "scheduler work (live processes and own children only)" visits visits';
  check_bool "zombies still unreaped" true (List.length (Kernel.processes loaded) >= exited)

(* Top-level programs are reaped at exit and take their pager objects
   with them; exec forgets the replaced image's.  Counted, not timed. *)
let execs = 500

let exits_keep_nothing () =
  let fresh = fork_kernel () in
  let k = fork_kernel () in
  let run_prog () =
    let p = Kernel.spawn_exec k "/home/perf/forkprog" in
    Kernel.run k;
    check_int "fork program exits cleanly" 0 (exit_code p)
  in
  run_prog ();
  let table = List.length (Kernel.processes k) and objects = Vm_object.registered () in
  for _ = 2 to execs do
    run_prog ()
  done;
  check_int "process table after 500 top-level execs" table (List.length (Kernel.processes k));
  check_int "pager registry after 500 top-level execs" objects (Vm_object.registered ());
  let p = Kernel.spawn_exec k "/home/perf/forkprog" in
  let objects = Vm_object.registered () in
  for _ = 1 to 50 do
    Kernel.exec k p "/home/perf/forkprog"
  done;
  check_int "pager registry after 50 in-place execs" objects (Vm_object.registered ());
  Kernel.run k;
  check_int "re-exec'd program exits cleanly" 0 (exit_code p);
  let console, cost, _ = fork_round fresh in
  let console', cost', _ = fork_round k in
  check_string "console" console console';
  check_bool "billed costs" true (cost = cost')

let suite =
  [
    prop "sched: run list + child index = full-table reference" ~count:40
      ~print:show_batches gen_batches sched_matches_reference;
    test "sched: 5,000 exited processes cost a pass and a wait nothing" zombies_cost_nothing;
    test "sched: 500 exited programs leave the table and pager registry flat"
      exits_keep_nothing;
  ]
