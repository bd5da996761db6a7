(* Scenario tests: end-to-end behaviours the paper describes in prose. *)

open Harness
module Modinst = Hemlock_linker.Modinst
module Layout = Hemlock_vm.Layout
module Stats = Hemlock_util.Stats
module Shm_heap = Hemlock_runtime.Shm_heap
module Shared_list = Hemlock_runtime.Shared_list

(* "Users can arrange to use new versions of dynamic modules by changing
   the LD_LIBRARY_PATH environment variable prior to execution.  This
   feature is useful for debugging and, more important, for customizing
   the use of shared data to the current user or program instance." *)
let ld_library_path_redirects () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  List.iter (Fs.mkdir fs) [ "/home/stable"; "/home/experimental"; "/home/t" ];
  install_c k "/home/stable/util.o" "int version() { return 1; }";
  install_c k "/home/experimental/util.o" "int version() { return 2; }";
  install_c k "/home/t/main.o" "extern int version(); int main() { return version(); }";
  (* linked against the bare name; -L points at stable *)
  ignore
    (Lds.link
       (ctx_in k "/home/t" ())
       ~cli_dirs:[ "/home/stable" ]
       ~specs:
         [
           { Lds.sp_name = "main.o"; sp_class = Sharing.Static_private };
           { Lds.sp_name = "util.o"; sp_class = Sharing.Dynamic_private };
         ]
       ~output:"prog" ());
  let run env =
    let proc = Kernel.spawn_exec k ~env "/home/t/prog" in
    Kernel.run k;
    exit_code proc
  in
  check_int "default finds the stable version" 1 (run []);
  check_int "env redirects to the experimental version" 2
    (run [ ("LD_LIBRARY_PATH", "/home/experimental") ]);
  check_int "and back, per process" 1 (run [])

(* fork before the lazy link fires: each process resolves its own copy. *)
let fork_before_lazy_link () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/lib.o" "extern int seed; int get() { return seed + 1; }";
  install_c k "/home/t/seedmod.o" "int seed = 10;";
  install_c k "/home/t/main.o"
    {|
extern int get();
int main() {
  int pid;
  pid = fork();          // fork BEFORE anything has touched lib.o
  if (pid == 0) {
    print_int(get());    // child faults and links its own instance
    exit(0);
  }
  wait();
  print_int(get());      // parent faults and links independently
  return 0;
}|};
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("lib.o", Sharing.Dynamic_private);
           ("seedmod.o", Sharing.Dynamic_private);
         ]
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "both sides resolved after the fork" "1111" out

(* An ISA program follows a raw pointer obtained from path_to_addr into
   a segment nobody mapped: the fault handler's second duty. *)
let isa_pointer_chase () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  Fs.create_file fs "/shared/blob";
  let seg = Fs.segment_of fs "/shared/blob" in
  Hemlock_vm.Segment.set_u32 seg 64 4242;
  ignore ldl;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o"
    {|
int main() {
  int *p;
  p = path_to_addr("/shared/blob");
  print_int(p[16]);
  return 0;
}|};
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "prog");
  Stats.reset ();
  let _, out = run_program k "/home/t/prog" in
  check_string "pointer chased" "4242" out;
  check_bool "at least one mapping fault" true (Stats.global.faults >= 1)

(* A linked structure spanning three different segments, traversed cold:
   each hop faults the next segment in. *)
let cross_segment_chain () =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  List.iter (Fs.create_file fs) [ "/shared/n1"; "/shared/n2"; "/shared/n3" ];
  (* builder process: node = [next; value], one node per segment *)
  run_native k (fun k proc ->
      Ldl.attach ldl proc;
      let addr name = Fs.addr_of_path fs name in
      let write base next value =
        Kernel.store_u32 k proc base next;
        Kernel.store_u32 k proc (base + 4) value
      in
      write (addr "/shared/n1") (addr "/shared/n2") 1;
      write (addr "/shared/n2") (addr "/shared/n3") 2;
      write (addr "/shared/n3") 0 3);
  (* a different, cold process walks it *)
  let total, faults =
    run_native k (fun k proc ->
        Ldl.attach ldl proc;
        Stats.reset ();
        let rec walk node acc =
          if node = 0 then acc
          else walk (Kernel.load_u32 k proc node) (acc + Kernel.load_u32 k proc (node + 4))
        in
        let total = walk (Fs.addr_of_path fs "/shared/n1") 0 in
        (total, Stats.global.faults))
  in
  check_int "sum across three segments" 6 total;
  check_int "one fault per segment" 3 faults

(* Public link state is shared: after one process pays for linking, a
   later process maps the module already-linked and takes no fault. *)
let link_state_shared_across_processes () =
  let k, ldl = boot () in
  ignore ldl;
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/ext.o" "extern int base_v; int get() { return base_v + 1; }";
  install_c k "/shared/lib/basemod.o" "int base_v = 41;";
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int get(); int main() { return get(); }";
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [
           ("main.o", Sharing.Static_private);
           ("/shared/lib/ext.o", Sharing.Dynamic_public);
           ("/shared/lib/basemod.o", Sharing.Dynamic_public);
         ]
       "prog");
  let run () =
    Stats.reset ();
    let proc = Kernel.spawn_exec k "/home/t/prog" in
    Kernel.run k;
    check_int "result" 42 (exit_code proc);
    Stats.global.faults
  in
  let first = run () in
  let second = run () in
  check_bool "first process paid the linking fault" true (first >= 1);
  check_int "second process took no faults at all" 0 second

(* Per-segment heaps: structures in two different segments allocate from
   their own heaps, found from any interior pointer. *)
let two_heaps_stay_separate () =
  let k, ldl = boot () in
  run_native k (fun k proc ->
      Ldl.attach ldl proc;
      let h1 = Shm_heap.create k proc ~path:"/shared/heap1" in
      let h2 = Shm_heap.create k proc ~path:"/shared/heap2" in
      let head1 = Shm_heap.alloc k proc ~heap:h1 4 in
      let head2 = Shm_heap.alloc k proc ~heap:h2 4 in
      Shared_list.init k proc ~head:head1;
      Shared_list.init k proc ~head:head2;
      ignore (Shared_list.push k proc ~head:head1 ~fields:[ 1 ]);
      ignore (Shared_list.push k proc ~head:head2 ~fields:[ 2 ]);
      ignore (Shared_list.push k proc ~head:head2 ~fields:[ 3 ]);
      check_int "list 1 in segment 1" (Layout.slot_of_addr h1)
        (Layout.slot_of_addr (Kernel.load_u32 k proc head1));
      check_int "list 2 in segment 2" (Layout.slot_of_addr h2)
        (Layout.slot_of_addr (Kernel.load_u32 k proc head2));
      check_int "lengths independent" 1 (Shared_list.length k proc ~head:head1);
      check_int "heap 1 live" 12 (Shm_heap.live_bytes k proc ~heap:h1);
      check_int "heap 2 live" 20 (Shm_heap.live_bytes k proc ~heap:h2))

(* The search order at static link time: cwd beats -L beats
   LD_LIBRARY_PATH beats the defaults. *)
let static_search_precedence () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  List.iter (Fs.mkdir fs) [ "/home/t"; "/cli"; "/env" ];
  let version dir v = install_c k (dir ^ "/m.o") (Printf.sprintf "int v() { return %d; }" v) in
  version "/home/t" 1;
  version "/cli" 2;
  version "/env" 3;
  version "/usr/lib" 4;
  install_c k "/home/t/main.o" "extern int v(); int main() { return v(); }";
  let link_with ~remove_first =
    if remove_first <> "" then Fs.unlink fs (remove_first ^ "/m.o");
    ignore
      (Lds.link
         (ctx_in k "/home/t" ~env:[ ("LD_LIBRARY_PATH", "/env") ] ())
         ~cli_dirs:[ "/cli" ]
         ~specs:
           [
             { Lds.sp_name = "main.o"; sp_class = Sharing.Static_private };
             { Lds.sp_name = "m.o"; sp_class = Sharing.Static_private };
           ]
         ~output:"prog" ());
    let proc, _ = run_program k "/home/t/prog" in
    exit_code proc
  in
  check_int "cwd wins" 1 (link_with ~remove_first:"");
  check_int "then -L" 2 (link_with ~remove_first:"/home/t");
  check_int "then LD_LIBRARY_PATH" 3 (link_with ~remove_first:"/cli");
  check_int "then the defaults" 4 (link_with ~remove_first:"/env")

(* The headline claim, end to end: an ordinary program, written in the
   toy C dialect with no set-up calls of any kind, walks the rwho
   daemon's pointer-linked shared database — language-level access to
   another program's live data structure. *)
let isa_program_reads_rwho_db () =
  let k, ldl = boot () in
  ignore ldl;
  (* the daemon side: build the shared database natively *)
  run_native k (fun k proc ->
      Hemlock_apps.Rwho.Shm.setup k proc;
      List.iter
        (fun (host, l1) ->
          Hemlock_apps.Rwho.Shm.store k proc
            {
              Hemlock_apps.Rwho.st_host = host;
              st_load1 = l1;
              st_load5 = 0;
              st_load15 = 0;
              st_uptime = 1000;
              st_users = [];
            })
        [ ("hostA", 150); ("hostB", 275) ]);
  (* the client side: plain Hem-C; node = [next; host_ptr; load1; ...] *)
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o"
    {|
int main() {
  int *base;
  int *node;
  base = path_to_addr("/shared/rwho/db");
  node = base[6];            // list head: first heap block, word 6 of the file
  while (node != 0) {
    print_str(node[1]);      // host name string, in place
    print_str(" load ");
    print_int(node[2]);
    print_str("
");
    node = *node;
  }
  return 0;
}|};
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "rwho");
  let _, out = run_program k "/home/t/rwho" in
  check_string "walked the daemon's live structure" "hostB load 275
hostA load 150
" out

(* Scoped linking with many same-named subsystems in one process. *)
let many_conflicting_subsystems () =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  let n = 6 in
  let ctx = ctx_in k "/" () in
  for i = 1 to n do
    let dir = Printf.sprintf "/shared/sub%d" i in
    Fs.mkdir fs dir;
    install_c k (dir ^ "/impl.o") (Printf.sprintf "int helper() { return %d; }" (i * 100));
    install_c k
      (dir ^ "/api.o")
      (Printf.sprintf "extern int helper(); int api%d() { return helper() + %d; }" i i);
    Lds.embed_metadata ctx ~template:(dir ^ "/api.o") ~modules:[ "impl.o" ]
      ~search_path:[ dir ]
  done;
  Fs.mkdir fs "/home/t";
  let calls =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf "  print_int(api%d()); print_str(\" \");\n" (i + 1)))
  in
  let externs =
    String.concat "" (List.init n (fun i -> Printf.sprintf "extern int api%d();
" (i + 1)))
  in
  install_c k "/home/t/main.o"
    (Printf.sprintf "%sint main() {
%s  return 0;
}" externs calls);
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         (("main.o", Sharing.Static_private)
         :: List.init n (fun i ->
                (Printf.sprintf "/shared/sub%d/api.o" (i + 1), Sharing.Dynamic_public)))
       "prog");
  let _, out = run_program k "/home/t/prog" in
  check_string "six subsystems, six helpers, zero collisions" "101 202 303 404 505 606 " out

(* The memory-system fast path (the software TLB) is observability-only:
   a lazy-linking + fork workload — the paper's core mechanics — must
   produce byte-identical console output and an identical simulated
   cost model with the TLB on and off. *)
let caches_do_not_change_simulation () =
  let module As = Hemlock_vm.Address_space in
  let module Trace = Hemlock_isa.Trace in
  let profile enabled =
    let old_tlb = !As.caching_default in
    (* Pin the trace JIT off: this test measures the interpreter's TLB
       fast path, which a compiled trace bypasses entirely (test_jit
       covers JIT-on/off equivalence). *)
    let old_jit = !Trace.enabled in
    As.caching_default := enabled;
    Trace.enabled := false;
    Fun.protect
      ~finally:(fun () ->
        As.caching_default := old_tlb;
        Trace.enabled := old_jit)
      (fun () ->
        let k, _ldl = boot () in
        let fs = Kernel.fs k in
        Fs.mkdir fs "/shared/lib";
        install_c k "/shared/lib/counter.o"
          "int counter; int bump() { counter = counter + 1; return counter; }";
        Fs.mkdir fs "/home/t";
        install_c k "/home/t/main.o"
          {|
extern int bump();
int main() {
  int pid;
  pid = fork();
  if (pid == 0) { print_int(bump()); exit(0); }
  wait();
  print_int(bump());
  return 0;
}
|};
        ignore
          (link k ~dir:"/home/t"
             ~specs:
               [
                 ("main.o", Sharing.Static_private);
                 ("/shared/lib/counter.o", Sharing.Dynamic_public);
               ]
             "prog");
        Stats.reset ();
        let before = Stats.snapshot () in
        let _, out1 = run_program k "/home/t/prog" in
        let _, out2 = run_program k "/home/t/prog" in
        (Stats.diff ~before ~after:(Stats.snapshot ()), out1 ^ "|" ^ out2))
  in
  let d_on, out_on = profile true in
  let d_off, out_off = profile false in
  check_string "console identical" out_off out_on;
  check_int "instructions identical" d_off.Stats.instructions d_on.Stats.instructions;
  check_int "faults identical" d_off.Stats.faults d_on.Stats.faults;
  check_int "syscalls identical" d_off.Stats.syscalls d_on.Stats.syscalls;
  check_int "simulated cycles identical" (Stats.cycles d_off) (Stats.cycles d_on);
  check_bool "fast path exercised" true (d_on.Stats.tlb_hits > 0);
  check_bool "slow path records no cache hits" true (d_off.Stats.tlb_hits = 0)

let suite =
  [
    test "scenario: LD_LIBRARY_PATH redirects module versions" ld_library_path_redirects;
    test "scenario: fork before the lazy link fires" fork_before_lazy_link;
    test "scenario: ISA program chases a raw shared pointer" isa_pointer_chase;
    test "scenario: pointer chain spans three segments" cross_segment_chain;
    test "scenario: public link state amortised across processes"
      link_state_shared_across_processes;
    test "scenario: per-segment heaps stay separate" two_heaps_stay_separate;
    test "scenario: static search precedence (s3 order)" static_search_precedence;
    test "scenario: Hem-C program walks the rwho shared database" isa_program_reads_rwho_db;
    test "scenario: N same-named subsystems stay isolated" many_conflicting_subsystems;
    test "scenario: caches leave the simulation unchanged" caches_do_not_change_simulation;
  ]
