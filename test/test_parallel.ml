(* Parallel execution: range locks, the domain pool, intra-kernel
   parallel runs, and multi-domain clusters.  The contract under test
   everywhere: spreading work over domains changes wall-clock time and
   nothing else — same consoles, same exit codes, same simulated
   costs. *)

open Harness
module Stats = Hemlock_util.Stats
module Domain_pool = Hemlock_util.Domain_pool
module Range_lock = Hemlock_vm.Range_lock
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module Errno = Hemlock_os.Errno
module Modgen = Hemlock_apps.Modgen

(* Read like Range_lock's own kill switch: some properties only hold at
   range granularity. *)
let big_lock_mode = Hemlock_util.Env.flag "HEMLOCK_NO_RANGELOCK"

(* ----- range locks ----- *)

(* Oracle for exclusivity: one atomic cell per page; a Shared hold adds
   1 to every page it covers, an Exclusive hold adds 1000.  If the lock
   is correct, an Exclusive holder sees every cell at exactly its own
   1000 and a Shared holder never sees a cell at >= 1000. *)
let rangelock_exclusivity_prop ops =
  let pages = 64 in
  let workers = 4 in
  let rl = Range_lock.create () in
  let cells = Array.init pages (fun _ -> Atomic.make 0) in
  let violated = Atomic.make false in
  let job w =
    List.iteri
      (fun n (lo, len, excl) ->
        if n mod workers = w then begin
          let lo = lo mod pages in
          let hi = min pages (lo + 1 + len) in
          let mode = if excl then Range_lock.Exclusive else Range_lock.Shared in
          let weight = if excl then 1000 else 1 in
          Range_lock.with_range rl ~lo ~hi mode (fun () ->
              for p = lo to hi - 1 do
                let seen = Atomic.fetch_and_add cells.(p) weight in
                let ok = if excl then seen = 0 else seen < 1000 in
                if not ok then Atomic.set violated true
              done;
              (* linger so overlapping acquires really race *)
              ignore (Sys.opaque_identity (ref 0));
              for p = lo to hi - 1 do
                ignore (Atomic.fetch_and_add cells.(p) (-weight))
              done)
        end)
      ops
  in
  let others =
    Array.init (workers - 1) (fun i -> Domain.spawn (fun () -> job (i + 1)))
  in
  job 0;
  Array.iter Domain.join others;
  (* completion itself is the no-deadlock half of the property *)
  (not (Atomic.get violated)) && Range_lock.held rl = []

let rangelock_disjoint_never_blocks () =
  (* Under the kill switch every hold is the whole space, so disjointness
     is (by design) not respected — nothing to test. *)
  if not big_lock_mode then begin
    let rl = Range_lock.create () in
    Range_lock.acquire rl ~lo:0 ~hi:10 Range_lock.Exclusive;
    let passed = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          (* must not block: [10, 20) is disjoint from the held [0, 10) *)
          Range_lock.with_range rl ~lo:10 ~hi:20 Range_lock.Exclusive (fun () ->
              Atomic.set passed true))
    in
    Domain.join d;
    Range_lock.release rl ~lo:0 ~hi:10;
    check_bool "disjoint exclusive ranges coexist" true (Atomic.get passed)
  end

let rangelock_conflicting_waits () =
  let rl = Range_lock.create () in
  Range_lock.acquire rl ~lo:0 ~hi:10 Range_lock.Exclusive;
  let entered = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Range_lock.with_range rl ~lo:5 ~hi:15 Range_lock.Shared (fun () ->
            Atomic.set entered true))
  in
  (* the overlapping reader cannot get in while the writer holds *)
  ignore (Sys.opaque_identity (ref 0));
  check_bool "overlap excluded while held" false (Atomic.get entered);
  Range_lock.release rl ~lo:0 ~hi:10;
  Domain.join d;
  check_bool "admitted after release" true (Atomic.get entered);
  check_bool "all holds drained" true (Range_lock.held rl = [])

(* ----- per-domain PRNG streams ----- *)

let prng_streams_split () =
  let module Prng = Hemlock_util.Prng in
  (* stream d on domain d: draws must not depend on which domain asks *)
  let draws =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let g = Prng.stream ~seed:42 ~index:d in
            List.init 8 (fun _ -> Prng.next g)))
  in
  let on_domains = Array.map Domain.join draws in
  Array.iteri
    (fun d here ->
      let g = Prng.stream ~seed:42 ~index:d in
      check_bool
        (Printf.sprintf "stream %d domain-independent" d)
        true
        (List.init 8 (fun _ -> Prng.next g) = here))
    on_domains;
  (* the streams of one family are pairwise distinct *)
  check_bool "streams independent" true
    (List.hd on_domains.(0) <> List.hd on_domains.(1)
    && List.hd on_domains.(1) <> List.hd on_domains.(2))

(* ----- the domain pool ----- *)

let pool_rounds_and_merge () =
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let before = Stats.snapshot () in
  let hits = Array.make 4 0 in
  for _ = 1 to 3 do
    Domain_pool.round pool (fun w ->
        hits.(w) <- hits.(w) + 1;
        (Stats.cur ()).messages_sent <- (Stats.cur ()).messages_sent + 1)
  done;
  check_bool "every worker ran every round" true (Array.for_all (( = ) 3) hits);
  Domain_pool.shutdown pool;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (* 3 rounds x 4 workers, the 3 off-domain records merged at shutdown *)
  check_int "per-domain stats merge" 12 d.Stats.messages_sent

let pool_reraises_lowest_worker () =
  let pool = Domain_pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  (match
     Domain_pool.round pool (fun w -> if w >= 2 then failwith (string_of_int w))
   with
  | () -> Alcotest.fail "round did not re-raise"
  | exception Failure w -> check_string "deterministic loser" "2" w);
  (* the pool survives a failed round *)
  let ok = ref 0 in
  Domain_pool.round pool (fun _ -> incr ok);
  check_bool "pool usable after failure" true (!ok >= 1)

(* ----- intra-kernel parallel runs ----- *)

let compute_src ret =
  Printf.sprintf
    {|
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 400) {
    s = s + i; s = s - i; s = s + 1;
    i = i + 1;
  }
  return s - 400 + %d;
}
|}
    ret

let par_setup () =
  let k, _ldl = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  let prog n ret =
    install_c k (Printf.sprintf "/home/t/%s.o" n) (compute_src ret);
    ignore
      (link k ~dir:"/home/t"
         ~specs:[ (Printf.sprintf "%s.o" n, Sharing.Static_private) ]
         n)
  in
  prog "a" 10;
  prog "b" 20;
  let procs =
    List.concat_map
      (fun (n, _) ->
        [ Kernel.spawn_exec k ("/home/t/" ^ n); Kernel.spawn_exec k ("/home/t/" ^ n) ])
      [ ("a", 10); ("b", 20) ]
  in
  (k, procs)

let exit_codes procs = List.map exit_code procs

let run_par_matches_sequential () =
  let k_seq, procs_seq = par_setup () in
  let (), d_seq = Stats.measure (fun () -> Kernel.run k_seq) in
  let k_par, procs_par = par_setup () in
  let pool = Domain_pool.create ~domains:4 in
  let (), d_par =
    Stats.measure (fun () ->
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () -> Kernel.run_par k_par ~pool))
  in
  check_bool "exit codes" true (exit_codes procs_seq = exit_codes procs_par);
  check_int "instructions" d_seq.Stats.instructions d_par.Stats.instructions;
  check_int "syscalls" d_seq.Stats.syscalls d_par.Stats.syscalls;
  check_int "context switches" d_seq.Stats.context_switches d_par.Stats.context_switches;
  check_int "faults" d_seq.Stats.faults d_par.Stats.faults;
  check_int "cycles" (Stats.cycles d_seq) (Stats.cycles d_par)

(* ----- network enqueue and backpressure ----- *)

let enqueue_net_backpressure () =
  let k = Kernel.create () in
  Kernel.msgq_create k "q" ~capacity:2;
  let before = Stats.snapshot () in
  let ok b = Kernel.enqueue_net k "q" b = Ok () in
  check_bool "first lands" true (ok (Bytes.of_string "a"));
  check_bool "second lands" true (ok (Bytes.of_string "b"));
  check_bool "full queue refuses" true
    (Kernel.enqueue_net k "q" (Bytes.of_string "c") = Error Errno.EAGAIN);
  check_bool "missing queue" true
    (match Kernel.enqueue_net k "nope" Bytes.empty with Error _ -> true | Ok () -> false);
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (* raw enqueue never bills: traffic accounting is the cluster's job,
     per datagram that actually lands *)
  check_int "no billing from enqueue_net" 0 d.Stats.messages_sent;
  let got = ref [] in
  ignore
    (Kernel.spawn_native k ~name:"rx" (fun k proc ->
         let first = Kernel.msg_recv k proc "q" in
         let second = Kernel.msg_recv k proc "q" in
         got := [ first; second ];
         0));
  Kernel.run k;
  check_bool "delivered in order" true
    (List.map Bytes.to_string !got = [ "a"; "b" ])

(* ----- multi-domain clusters ----- *)

(* A miniature rwhod: every machine broadcasts tagged datagrams and
   records everything it hears.  Returns (per-machine transcripts,
   stat diff) so runs at different domain counts can be compared
   byte-for-byte. *)
let cluster_observables ~domains =
  let machines = 4 in
  let sends = 5 in
  let heard = Array.make machines [] in
  (* pinned to [Ideal]: this test asserts exact full-matrix delivery,
     which must hold even when the suite runs under a lossy
     HEMLOCK_NET_PROFILE *)
  let c = Cluster.create ~profile:Net.Ideal ~machines () in
  for i = 0 to machines - 1 do
    let k = Cluster.machine c i in
    let rx =
      Kernel.spawn_native k ~name:"rx" (fun k proc ->
          while true do
            heard.(i) <- Bytes.to_string (Kernel.msg_recv k proc Cluster.inbox) :: heard.(i)
          done;
          0)
    in
    Kernel.set_daemon k rx;
    ignore
      (Kernel.spawn_native k ~name:"tx" (fun _ proc ->
           for r = 1 to sends do
             Cluster.broadcast c ~from:i
               (Bytes.of_string (Printf.sprintf "m%d-r%d" i r));
             Proc.yield ()
           done;
           ignore proc;
           0))
  done;
  let before = Stats.snapshot () in
  Cluster.run ~domains c;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (Array.map (fun l -> String.concat "," (List.rev l)) heard, d)

let cluster_lockstep () =
  let obs1, d1 = cluster_observables ~domains:1 in
  let obs4, d4 = cluster_observables ~domains:4 in
  Array.iteri
    (fun i t1 ->
      check_string (Printf.sprintf "machine %d transcript" i) t1 obs4.(i))
    obs1;
  (* every broadcast lands exactly once: 3 peers x 5 sends x 4 senders *)
  check_int "messages" 60 d1.Stats.messages_sent;
  check_int "messages at 4 domains" d1.Stats.messages_sent d4.Stats.messages_sent;
  check_int "bytes" d1.Stats.bytes_copied d4.Stats.bytes_copied;
  check_int "context switches" d1.Stats.context_switches d4.Stats.context_switches;
  check_int "cycles" (Stats.cycles d1) (Stats.cycles d4)

(* Every machine lazy-links a deep module chain and reboots, over and
   over, while the other machines do the same on other domains.  Path
   lookups are memoised per file system, so neither a concurrent link
   nor another machine's reboot can touch a machine's lookups: its
   console, billed costs and locate-cache hits are the same at any
   domain count. *)
let cluster_link_reboot ~domains =
  let machines = 4 and modules = 6 and rounds = 3 in
  let c = Cluster.create ~profile:Net.Ideal ~machines () in
  for i = 0 to machines - 1 do
    let k = Cluster.machine c i in
    let ldl = Ldl.install k in
    Hemlock_runtime.Sync.install k;
    Fs.mkdir (Kernel.fs k) "/home/lib";
    ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules);
    Modgen.link_driver ~deep:modules ldl ~dir:"/home/lib" ~out:"/home/d/prog"
      ~used:(modules - 1 - (i mod 2));
    ignore
      (Kernel.spawn_native k ~name:"relinker" (fun k proc ->
           for _ = 1 to rounds do
             ignore (Kernel.spawn_exec k ~parent:proc.Proc.pid "/home/d/prog");
             ignore (Kernel.waitpid k proc);
             Kernel.reboot k
           done;
           0))
  done;
  let before = Stats.snapshot () in
  Cluster.run ~domains c;
  let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
  (Array.init machines (fun i -> Kernel.console (Cluster.machine c i)), d)

let cluster_link_reboot_lockstep () =
  let obs1, d1 = cluster_link_reboot ~domains:1 in
  let obs4, d4 = cluster_link_reboot ~domains:4 in
  Array.iteri
    (fun i t1 ->
      let want = string_of_int (Modgen.expected ~modules:6 ~used:(5 - (i mod 2))) in
      check_string (Printf.sprintf "machine %d output" i) (String.concat "" [ want; want; want ]) t1;
      check_string (Printf.sprintf "machine %d at 4 domains" i) t1 obs4.(i))
    obs1;
  if !Search.cache_enabled then
    check_bool "lookups served from the cache" true (d1.Stats.search_cache_hits > 0);
  check_int "locate-cache hits" d1.Stats.search_cache_hits d4.Stats.search_cache_hits;
  check_int "symbols resolved" d1.Stats.symbols_resolved d4.Stats.symbols_resolved;
  check_int "instructions" d1.Stats.instructions d4.Stats.instructions;
  check_int "faults" d1.Stats.faults d4.Stats.faults;
  check_int "syscalls" d1.Stats.syscalls d4.Stats.syscalls;
  check_int "cycles" (Stats.cycles d1) (Stats.cycles d4)

let cluster_deadlock_tagged () =
  let c = Cluster.create ~profile:Net.Ideal ~machines:2 () in
  ignore
    (Kernel.spawn_native (Cluster.machine c 1) ~name:"stuck" (fun k proc ->
         ignore (Kernel.msg_recv k proc Cluster.inbox);
         0));
  match Cluster.run c with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Kernel.Deadlock bs ->
    check_bool "machine-tagged" true
      (List.exists (fun b -> contains b.Kernel.b_comm "m1:stuck") bs)

let suite =
  [
    prop "range lock: concurrent holds keep exclusivity (vs atomic oracle)" ~count:60
      QCheck2.Gen.(
        list_size (int_range 4 40)
          (triple (int_bound 63) (int_range 0 7) bool))
      rangelock_exclusivity_prop;
    test "range lock: disjoint ranges never block" rangelock_disjoint_never_blocks;
    test "range lock: overlap waits for release" rangelock_conflicting_waits;
    test "prng: per-domain streams are deterministic" prng_streams_split;
    test "domain pool: rounds run everywhere, stats merge" pool_rounds_and_merge;
    test "domain pool: failure re-raised from lowest worker" pool_reraises_lowest_worker;
    test "kernel: run_par = sequential run (codes, costs)" run_par_matches_sequential;
    test "kernel: enqueue_net backpressure, no phantom billing" enqueue_net_backpressure;
    test "cluster: 4-domain run = single-domain oracle" cluster_lockstep;
    test "cluster: lazy links and reboots on 4 domains = single-domain oracle"
      cluster_link_reboot_lockstep;
    test "cluster: deadlock reports machine-tagged processes" cluster_deadlock_tagged;
  ]
