open Harness
module As = Hemlock_vm.Address_space
module Prot = Hemlock_vm.Prot
module Layout = Hemlock_vm.Layout
module Stats = Hemlock_util.Stats

(* ----- native processes and scheduling ----- *)

let native_exit_codes () =
  let k = Kernel.create () in
  let p1 = Kernel.spawn_native k ~name:"a" (fun _ _ -> 3) in
  let p2 = Kernel.spawn_native k ~name:"b" (fun _ _ -> raise (Proc.Exit_proc 9)) in
  Kernel.run k;
  check_int "returned" 3 (exit_code p1);
  check_int "Exit_proc" 9 (exit_code p2)

let native_crash_is_kill () =
  let k = Kernel.create () in
  let p = Kernel.spawn_native k ~name:"boom" (fun _ _ -> failwith "bang") in
  Kernel.run k;
  check_int "killed" (-1) (exit_code p);
  check_bool "console notes it" true (contains (Kernel.console k) "killed")

let yield_interleaves () =
  let k = Kernel.create () in
  let order = Buffer.create 16 in
  let worker tag =
    Kernel.spawn_native k ~name:tag (fun _ _ ->
        for _ = 1 to 3 do
          Buffer.add_string order tag;
          Proc.yield ()
        done;
        0)
  in
  ignore (worker "a");
  ignore (worker "b");
  Kernel.run k;
  check_string "round robin" "ababab" (Buffer.contents order)

let wait_until_blocks () =
  let k = Kernel.create () in
  let flag = ref false in
  let waiter =
    Kernel.spawn_native k ~name:"waiter" (fun _ _ ->
        Proc.wait_until (fun () -> !flag);
        7)
  in
  ignore
    (Kernel.spawn_native k ~name:"setter" (fun _ _ ->
         Proc.yield ();
         flag := true;
         0));
  Kernel.run k;
  check_int "woke" 7 (exit_code waiter)

let deadlock_detected () =
  let k = Kernel.create () in
  ignore (Kernel.spawn_native k ~name:"stuck" (fun _ _ ->
      Proc.wait_until (fun () -> false);
      0));
  match Kernel.run k with
  | () -> Alcotest.fail "expected deadlock"
  | exception Kernel.Deadlock blocked ->
    check_int "one stuck process" 1 (List.length blocked);
    let b = List.hd blocked in
    check_string "names comm" "stuck" b.Kernel.b_comm;
    check_bool "positive pid" true (b.Kernel.b_pid > 0);
    check_bool "carries wait reason" true (contains b.Kernel.b_why "wait_until");
    check_bool "message renders all of it" true
      (contains (Hemlock_os.Sched.deadlock_message blocked) "stuck")

let daemons_allowed_to_block () =
  let k = Kernel.create () in
  let d =
    Kernel.spawn_native k ~name:"daemon" (fun _ _ ->
        Proc.wait_until (fun () -> false);
        0)
  in
  Kernel.set_daemon k d;
  Kernel.run k (* should terminate without Deadlock *)

let waitpid_reaps () =
  let k = Kernel.create () in
  let seen = ref (0, 0) in
  ignore
    (Kernel.spawn_native k ~name:"parent" (fun k proc ->
         let child =
           Kernel.spawn_native k ~name:"child" ~parent:proc.Proc.pid (fun _ _ -> 5)
         in
         seen := Kernel.waitpid k proc;
         check_bool "child gone from table" true (Kernel.find_proc k child.Proc.pid = None);
         0));
  Kernel.run k;
  let pid, code = !seen in
  check_bool "pid positive" true (pid > 0);
  check_int "code" 5 code

(* ----- reaping: who reaps what, and when ----- *)

let in_table k p = Kernel.find_proc k p.Proc.pid <> None

let top_level_exit_reaped () =
  let k = Kernel.create () in
  let p = Kernel.spawn_native k ~name:"top" (fun _ _ -> 7) in
  check_bool "listed while live" true (in_table k p);
  let (), d = Stats.measure (fun () -> Kernel.run k) in
  check_bool "gone from find_proc" false (in_table k p);
  check_int "gone from processes" 0 (List.length (Kernel.processes k));
  check_int "the held record keeps its exit code" 7 (exit_code p);
  check_int "no syscall billed" 0 d.Stats.syscalls

(* [early] exits while its parent lives, so it stays a zombie; the
   parent's exit takes it along, while [late], still live, waits for a
   watcher to look at the table and is reaped at its own exit. *)
let orphans_reaped () =
  let k = Kernel.create () in
  let released = ref false and seen = ref [] in
  let early = ref None and late = ref None in
  let get r = Option.get !r in
  let parent =
    Kernel.spawn_native k ~name:"parent" (fun k p ->
        early := Some (Kernel.spawn_native k ~name:"early" ~parent:p.Proc.pid (fun _ _ -> 1));
        late :=
          Some
            (Kernel.spawn_native k ~name:"late" ~parent:p.Proc.pid (fun _ _ ->
                 Proc.wait_until (fun () -> !released);
                 2));
        Proc.wait_until (fun () -> Proc.is_zombie (get early));
        check_bool "a live parent's zombie stays" true (in_table k (get early));
        3)
  in
  ignore
    (Kernel.spawn_native k ~name:"watcher" (fun k _ ->
         Proc.wait_until (fun () -> Proc.is_zombie parent);
         seen :=
           [ in_table k parent; in_table k (get early); in_table k (get late);
             Proc.is_zombie (get late) ];
         released := true;
         0));
  Kernel.run k;
  check_bool "parent exit: itself and its zombie child gone, its live child kept" true
    (!seen = [ false; false; true; false ]);
  check_bool "the orphan is reaped at its own exit" false (in_table k (get late));
  check_int "table empty" 0 (List.length (Kernel.processes k));
  List.iter2
    (fun p code -> check_int ("exit code of " ^ p.Proc.comm) code (exit_code p))
    [ parent; get early; get late ] [ 3; 1; 2 ]

(* Zombies of a live parent stay until it waits, and both waits reap
   the lowest pid first: [waitpid] for a native parent, ISA [wait] for a
   compiled one (a watcher checks all three zombies are in the table
   before the ISA parent starts waiting). *)
let live_parent_waits () =
  let k = Kernel.create () in
  let kids = ref [] in
  let parent =
    Kernel.spawn_native k ~name:"native-parent" (fun k p ->
         kids :=
           List.map
             (fun c -> Kernel.spawn_native k ~name:"kid" ~parent:p.Proc.pid (fun _ _ -> c))
             [ 1; 2; 3 ];
         Proc.wait_until (fun () -> List.for_all Proc.is_zombie !kids);
         check_bool "zombies stay while the parent lives" true (List.for_all (in_table k) !kids);
         List.iter
           (fun c ->
             let pid, code = Kernel.waitpid k p in
             check_int "waitpid reaps the lowest pid" c.Proc.pid pid;
             check_int "its exit code" (exit_code c) code;
             check_bool "reaped" false (in_table k c))
           !kids;
         0)
  in
  Kernel.run k;
  (* a failed check inside a native body kills it: its exit code shows *)
  check_int "native parent passed its checks" 0 (exit_code parent);
  check_int "native: table empty" 0 (List.length (Kernel.processes k));
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o"
    {|
int main() {
  int n;
  int pid;
  n = 0;
  while (n < 3) {
    pid = fork();
    if (pid == 0) {
      exit(n + 1);
    }
    n = n + 1;
  }
  n = 0;
  while (n < 5) {
    yield();
    n = n + 1;
  }
  n = 0;
  while (n < 3) {
    print_int(wait());
    print_str(" ");
    n = n + 1;
  }
  return 0;
}|};
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  let prog = Kernel.spawn_exec k "/home/t/prog" in
  let zombie_kids () =
    List.filter
      (fun c -> c.Proc.parent = prog.Proc.pid && Proc.is_zombie c)
      (Kernel.processes k)
  in
  let zombies = ref [] in
  ignore
    (Kernel.spawn_native k ~name:"watcher" (fun _ _ ->
         Proc.wait_until ~why:"three zombies" (fun () -> List.length (zombie_kids ()) = 3);
         zombies := List.map (fun c -> c.Proc.pid) (zombie_kids ());
         0));
  Kernel.console_clear k;
  Kernel.run k;
  check_string "wait: lowest pid first"
    (String.concat "" (List.map (Printf.sprintf "%d ") !zombies))
    (Kernel.console k);
  check_int "ISA: table empty" 0 (List.length (Kernel.processes k))

let waitpid_no_children () =
  let k = Kernel.create () in
  ignore
    (Kernel.spawn_native k ~name:"lonely" (fun k proc ->
         match Kernel.waitpid k proc with
         | _ -> Alcotest.fail "expected Os_error"
         | exception Kernel.Os_error _ -> 0));
  Kernel.run k

let env_vars () =
  let k = Kernel.create () in
  ignore
    (Kernel.spawn_native k ~name:"env" ~env:[ ("A", "1") ] (fun _ proc ->
         check_bool "inherited" true (Proc.getenv proc "A" = Some "1");
         Proc.setenv proc "A" "2";
         Proc.setenv proc "B" "x";
         check_bool "updated" true (Proc.getenv proc "A" = Some "2");
         check_bool "added" true (Proc.getenv proc "B" = Some "x");
         check_bool "missing" true (Proc.getenv proc "C" = None);
         0));
  Kernel.run k

(* ----- fds, locks, msgqs ----- *)

let fd_layer () =
  let k = Kernel.create () in
  ignore
    (Kernel.spawn_native k ~name:"fds" (fun k proc ->
         let fd = Kernel.sys_open k proc ~create:true "/tmp/f" in
         check_int "write" 5 (Kernel.sys_write k proc fd (Bytes.of_string "hello"));
         check_int "lseek returns offset" 0 (Kernel.sys_lseek k proc fd 0);
         check_string "read" "hello" (Bytes.to_string (Kernel.sys_read k proc fd 100));
         check_string "eof read" "" (Bytes.to_string (Kernel.sys_read k proc fd 10));
         check_int "lseek returns new offset" 1 (Kernel.sys_lseek k proc fd 1);
         check_bool "negative lseek is EINVAL" true
           (Kernel.sys_lseek_r k proc fd (-3) = Error Hemlock_os.Errno.EINVAL);
         check_string "seek" "ello" (Bytes.to_string (Kernel.sys_read k proc fd 4));
         Kernel.sys_close k proc fd;
         (match Kernel.sys_read k proc fd 1 with
         | _ -> Alcotest.fail "expected bad fd"
         | exception Kernel.Os_error _ -> ());
         (match Kernel.sys_open k proc "/tmp/missing" with
         | _ -> Alcotest.fail "expected open failure"
         | exception Kernel.Os_error msg ->
           check_bool "carries ENOENT" true (contains msg "ENOENT"));
         0));
  Kernel.run k

let file_locks () =
  let k = Kernel.create () in
  let log = Buffer.create 16 in
  ignore
    (Kernel.spawn_native k ~name:"first" (fun k proc ->
         check_bool "acquired" true (Kernel.try_flock k proc "/tmp/lock");
         Buffer.add_string log "a";
         Proc.yield ();
         Proc.yield ();
         Buffer.add_string log "r";
         Kernel.funlock k proc "/tmp/lock";
         0));
  ignore
    (Kernel.spawn_native k ~name:"second" (fun k proc ->
         check_bool "contended" false (Kernel.try_flock k proc "/tmp/lock");
         Kernel.flock k proc "/tmp/lock";
         Buffer.add_string log "b";
         Kernel.funlock k proc "/tmp/lock";
         0));
  Kernel.run k;
  check_string "exclusion order" "arb" (Buffer.contents log)

let locks_released_on_exit () =
  let k = Kernel.create () in
  ignore
    (Kernel.spawn_native k ~name:"holder" (fun k proc ->
         ignore (Kernel.try_flock k proc "/tmp/l");
         0));
  ignore
    (Kernel.spawn_native k ~name:"waiter" (fun k proc ->
         Kernel.flock k proc "/tmp/l";
         0));
  Kernel.run k (* no deadlock: exit released the lock *)

let message_queues () =
  let k = Kernel.create () in
  Kernel.msgq_create k "q" ~capacity:2;
  let received = Buffer.create 16 in
  ignore
    (Kernel.spawn_native k ~name:"consumer" (fun k proc ->
         for _ = 1 to 4 do
           Buffer.add_bytes received (Kernel.msg_recv k proc "q")
         done;
         check_bool "empty try_recv" true (Kernel.msg_try_recv k proc "q" = None);
         0));
  ignore
    (Kernel.spawn_native k ~name:"producer" (fun k proc ->
         List.iter
           (fun s -> Kernel.msg_send k proc "q" (Bytes.of_string s))
           [ "a"; "b"; "c"; "d" ];
         0));
  Kernel.run k;
  check_string "all delivered in order" "abcd" (Buffer.contents received);
  match Kernel.msg_send k (Kernel.spawn_blank k ()) "missing" Bytes.empty with
  | _ -> Alcotest.fail "expected missing queue error"
  | exception Kernel.Os_error _ -> ()

(* ----- ISA processes via the kernel ----- *)

let isa_program src =
  let k, _ = boot () in
  let out = run_c_program (k, ()) src in
  (k, out)

let isa_syscalls () =
  let _, out =
    isa_program
      {|
int main() {
  print_int(getpid());
  print_str("!");
  yield();
  print_int(3);
  return 0;
}|}
  in
  (* first user process gets pid 1 in a fresh kernel... the linker test
     processes run first, so just check shape *)
  check_bool "printed pid then 3" true (contains out "!3")

let isa_fork_wait () =
  let _, out =
    isa_program
      {|
int counter;
int main() {
  int pid;
  counter = 7;
  pid = fork();
  if (pid == 0) {
    counter = counter + 1;   // child's private copy
    print_str("c");
    exit(counter);
  }
  wait();
  print_str("p");
  print_int(counter);        // parent's copy untouched: fork copies private data
  return 0;
}|}
  in
  check_string "fork isolates private data" "cp7" out

let isa_sbrk () =
  let _, out =
    isa_program
      {|
int main() {
  int *p;
  p = sbrk(8192);
  p[0] = 11;
  p[1500] = 31;
  print_int(p[0] + p[1500]);
  return 0;
}|}
  in
  check_string "heap usable" "42" out

let isa_segfault_kills () =
  let k, out =
    isa_program {|
int main() {
  int *p;
  p = 64;
  return *p;
}|}
  in
  ignore out;
  check_bool "killed message" true (contains (Kernel.console k) "fault at 0x00000040")

let isa_addr_translation_syscalls () =
  let k, _ = boot () in
  Fs.create_file (Kernel.fs k) "/shared/blob";
  let out =
    run_c_program (k, ())
      {|
char buf[64];
int main() {
  int a;
  a = path_to_addr("/shared/blob");
  print_int(a);
  print_str(" ");
  addr_to_path(a + 100, &buf[0], 64);
  print_str(&buf[0]);
  print_str(" ");
  print_int(path_to_addr("/tmp"));
  return 0;
}|}
  in
  (* /tmp is a directory, so the syscall now answers -EISDIR (-21)
     instead of the old ambiguous 0. *)
  check_string "translations" (Printf.sprintf "%d /shared/blob -21" Layout.shared_base) out

let exec_resets_image () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/one.o" {|int main() { print_str("one"); return 0; }|};
  install_c k "/home/t/two.o" {|int main() { print_str("two"); return 0; }|};
  ignore (link k ~dir:"/home/t" ~specs:[ ("one.o", Sharing.Static_private) ] "p1");
  ignore (link k ~dir:"/home/t" ~specs:[ ("two.o", Sharing.Static_private) ] "p2");
  ignore
    (Kernel.spawn_native k ~name:"execer" (fun k proc ->
         ignore (Kernel.spawn_exec k ~parent:proc.Proc.pid "/home/t/p1");
         ignore (Kernel.waitpid k proc);
         (* Re-exec the same process object with a different image. *)
         let child2 = Kernel.spawn_exec k ~parent:proc.Proc.pid "/home/t/p2" in
         Kernel.exec k child2 "/home/t/p1";
         ignore (Kernel.waitpid k proc);
         0));
  Kernel.console_clear k;
  Kernel.run k;
  check_string "exec replaced image" "oneone" (Kernel.console k)

let bad_exec_format () =
  let k, _ = boot () in
  Fs.write_file (Kernel.fs k) "/tmp/junk" (Bytes.of_string "garbage");
  ignore
    (Kernel.spawn_native k ~name:"t" (fun k _ ->
         match Kernel.spawn_exec k "/tmp/junk" with
         | _ -> Alcotest.fail "expected format error"
         | exception Kernel.Os_error msg ->
           check_bool "message" true (contains msg "unrecognised format");
           0));
  Kernel.run k

let run_tick_budget () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o" "int main() { while (1) { } return 0; }";
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "spin");
  ignore (Kernel.spawn_exec k "/home/t/spin");
  match Kernel.run ~max_ticks:50 k with
  | _ -> Alcotest.fail "expected budget exhaustion"
  | exception Kernel.Os_error msg -> check_bool "budget" true (contains msg "tick budget")

let stats_count_syscalls () =
  let k = Kernel.create () in
  Stats.reset ();
  let before = Stats.snapshot () in
  ignore
    (Kernel.spawn_native k ~name:"s" (fun k proc ->
         let fd = Kernel.sys_open k proc ~create:true "/tmp/x" in
         ignore (Kernel.sys_write k proc fd (Bytes.of_string "abcde"));
         Kernel.sys_close k proc fd;
         0));
  Kernel.run k;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  check_int "three syscalls" 3 d.Stats.syscalls;
  check_int "five bytes copied" 5 d.Stats.bytes_copied

let open_by_addr () =
  (* The overloaded open: open a shared file by any address inside it
     (the paper folds this into open; we give it its own syscall). *)
  let k = Kernel.create () in
  Fs.write_file (Kernel.fs k) "/shared/seg" (Bytes.of_string "payload bytes");
  let addr = Fs.addr_of_path (Kernel.fs k) "/shared/seg" in
  ignore
    (Kernel.spawn_native k ~name:"opener" (fun k proc ->
         let fd = Kernel.sys_open_by_addr k proc (addr + 3) in
         check_string "reads the file" "payload bytes"
           (Bytes.to_string (Kernel.sys_read k proc fd 100));
         Kernel.sys_close k proc fd;
         (match Kernel.sys_open_by_addr k proc (Layout.addr_of_slot 500) with
         | _ -> Alcotest.fail "expected no-file error"
         | exception Kernel.Os_error _ -> ());
         check_bool "errno-result variant agrees" true
           (Kernel.sys_open_by_addr_r k proc (Layout.addr_of_slot 500)
           = Error Hemlock_os.Errno.ENOENT);
         check_string "addr_to_path agrees" "/shared/seg"
           (Kernel.sys_addr_to_path k proc (addr + 3));
         0));
  Kernel.run k

let aout_pp_smoke () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/lib.o" "int helper() { return 1; }";
  install_c k "/home/t/main.o" "extern int helper(); int main() { return helper(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:[ ("main.o", Sharing.Static_private); ("lib.o", Sharing.Dynamic_private) ]
       "prog");
  let aout = Hemlock_linker.Aout.parse (Fs.read_file (Kernel.fs k) "/home/t/prog") in
  let text = Format.asprintf "%a" Hemlock_linker.Aout.pp aout in
  check_bool "lists main" true (contains text "main");
  check_bool "lists the dynamic module" true (contains text "lib.o");
  check_bool "lists retained relocation" true (contains text "helper");
  check_bool "records search path" true (contains text "/home/t")

let pd_call_basics () =
  let k = Kernel.create () in
  let served = ref 0 in
  let srv =
    Kernel.spawn_native k ~name:"server" (fun k proc ->
        Kernel.register_pd_service k ~name:"double" ~owner:proc (fun _ _ arg ->
            incr served;
            arg * 2);
        Proc.wait_until (fun () -> false);
        0)
  in
  Kernel.set_daemon k srv;
  let got =
    ref 0
  in
  ignore
    (Kernel.spawn_native k ~name:"client" (fun k proc ->
         Proc.yield ();
         got := Kernel.pd_call k proc ~service:"double" 21;
         (match Kernel.pd_call k proc ~service:"missing" 0 with
         | _ -> Alcotest.fail "expected unknown-service error"
         | exception Kernel.Os_error _ -> ());
         0));
  Kernel.run k;
  check_int "synchronous result" 42 !got;
  check_int "handler ran once" 1 !served

let pd_call_runs_in_server_domain () =
  (* The handler reads memory through the server's address space, not
     the caller's: shared code, server-private data. *)
  let k = Kernel.create () in
  let secret_addr = 0x100000 in
  let srv =
    Kernel.spawn_native k ~name:"server" (fun k proc ->
        let seg = Hemlock_vm.Segment.create ~name:"secret" ~max_size:4096 () in
        Hemlock_vm.Segment.set_u32 seg 0 777;
        Hemlock_vm.Address_space.map proc.Proc.space ~base:secret_addr ~len:4096 ~seg
          ~prot:Hemlock_vm.Prot.Read_write ~share:Hemlock_vm.Address_space.Private
          ~label:"secret" ();
        Kernel.register_pd_service k ~name:"peek" ~owner:proc (fun k srv_proc _ ->
            Kernel.load_u32 k srv_proc secret_addr);
        Proc.wait_until (fun () -> false);
        0)
  in
  Kernel.set_daemon k srv;
  let got = ref 0 in
  ignore
    (Kernel.spawn_native k ~name:"client" (fun k proc ->
         Proc.yield ();
         (* the client itself cannot see the server's private page: with
            no SIGSEGV handler installed the access is fatal, so probe
            through the raw space instead of the checked accessors *)
         (match Hemlock_vm.Address_space.load_u32 proc.Proc.space secret_addr with
         | _ -> Alcotest.fail "client should fault"
         | exception Hemlock_vm.Address_space.Fault _ -> ());
         got := Kernel.pd_call k proc ~service:"peek" 0;
         0));
  Kernel.run k;
  check_int "server-domain data reached via pd_call" 777 !got

let suite =
  [
    test "kernel: native exit codes" native_exit_codes;
    test "kernel: crashes kill the process" native_crash_is_kill;
    test "kernel: yield interleaves" yield_interleaves;
    test "kernel: wait_until blocks and wakes" wait_until_blocks;
    test "kernel: deadlock detection" deadlock_detected;
    test "kernel: daemons may stay blocked" daemons_allowed_to_block;
    test "kernel: waitpid reaps zombies" waitpid_reaps;
    test "kernel: waitpid without children errors" waitpid_no_children;
    test "kernel: a top-level exit is reaped at once" top_level_exit_reaped;
    test "kernel: a parent's exit reaps its zombies; orphans reaped at exit" orphans_reaped;
    test "kernel: a live parent's zombies stay until it waits" live_parent_waits;
    test "kernel: environment variables" env_vars;
    test "kernel: file descriptors" fd_layer;
    test "kernel: file locks exclude" file_locks;
    test "kernel: locks released on exit" locks_released_on_exit;
    test "kernel: message queues" message_queues;
    test "isa: basic syscalls" isa_syscalls;
    test "isa: fork copies private data (s5)" isa_fork_wait;
    test "isa: sbrk heap" isa_sbrk;
    test "isa: unhandled segfault kills" isa_segfault_kills;
    test "isa: addr<->path kernel calls" isa_addr_translation_syscalls;
    test "kernel: exec replaces the image" exec_resets_image;
    test "kernel: bad exec format" bad_exec_format;
    test "kernel: runaway program hits tick budget" run_tick_budget;
    test "kernel: stats count kernel work" stats_count_syscalls;
    test "kernel: open by address" open_by_addr;
    test "aout: pretty-printer shows the link state" aout_pp_smoke;
    test "kernel: pd_call synchronous service" pd_call_basics;
    test "kernel: pd_call runs in the server's domain" pd_call_runs_in_server_domain;
  ]
