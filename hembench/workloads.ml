(* The benchmark's four workloads.  Each is a closed loop with one
   client: the next op starts when the previous one has returned.  A
   workload sets up a machine (or a cluster) once, then runs a fixed,
   seed-derived schedule of ops against it; every op checks its own
   output, and [finish] runs the end-of-run checks.

   Mixes are exact proportions shuffled by the seed, so every seed does
   the same amount of each kind of work and only the order, the driver
   and target choices and the user traffic differ. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc
module Cluster = Hemlock_os.Cluster
module Net = Hemlock_os.Net
module Fs = Hemlock_sfs.Fs
module Path = Hemlock_sfs.Path
module Vm_object = Hemlock_vm.Vm_object
module Stats = Hemlock_util.Stats
module Prng = Hemlock_util.Prng
module Objfile = Hemlock_obj.Objfile
module Cc = Hemlock_cc.Cc
module Lds = Hemlock_linker.Lds
module Ldl = Hemlock_linker.Ldl
module Search = Hemlock_linker.Search
module Sharing = Hemlock_linker.Sharing
module Serializer = Hemlock_baseline.Serializer
module Rwho = Hemlock_apps.Rwho
module Gossip = Rwho.Gossip
module Modgen = Hemlock_apps.Modgen
module Presto = Hemlock_apps.Presto
module Symtab = Hemlock_apps.Symtab
module Xfig = Hemlock_apps.Xfig

let span = Span.span

(* The self-test names one op whose expected answer is deliberately
   wrong, to show that the checks can fail. *)
let sabotage = ref None

let expect want = if !sabotage = Some !Span.op then want ^ "#wrong" else want

type outcome = {
  cls : string;  (** op class, e.g. "warm" *)
  ok : bool;
  query_ns : int64;  (** time of the op's read query, 0 when it has none *)
}

type instance = {
  op : int -> outcome;
  finish : unit -> (string * bool) list;  (** end-of-run checks *)
  counts : unit -> (string * float) list;
      (** end-of-run layer counts only the workload can see, by metric name *)
}

type t = {
  name : string;
  ops_per_run_second : float;
      (** a run does [ops_per_run_second * seconds] ops, the same work on
          every commit, sized so the run's heap stays within a few
          hundred MB (see PREDICTIONS.md) *)
  domains : int;
  setup : seed:int -> n:int -> instance;
}

let fail_setup what = failwith ("set-up failed: " ^ what)

(* [counts] exact class counts, spread evenly over ten blocks and
   shuffled by [rng] within each block: every seed does the same work
   in each tenth of the run, so how per-op cost grows with the ops
   already run does not depend on the seed.  The [j]-th op of a class
   is tagged [(class, j)]. *)
let schedule rng counts =
  let blocks = 10 in
  let block b =
    let a =
      Array.of_list
        (List.concat_map
           (fun (c, k) ->
             let lo = k * b / blocks and hi = k * (b + 1) / blocks in
             List.init (hi - lo) (fun j -> (c, lo + j)))
           counts)
    in
    Prng.shuffle rng a;
    a
  in
  Array.concat (List.init blocks block)

(* Exact class counts for [n] ops that give every class an equal share
   of host time: a class's count is in proportion to 1 / its mean op
   latency in ms, as measured on a 2-core host (the "Class mixes"
   table in PREDICTIONS.md).  The first class takes the rounding
   remainder; every other class gets at least one op. *)
let equal_time n classes =
  let total = List.fold_left (fun a (_, ms) -> a +. (1. /. ms)) 0. classes in
  match classes with
  | [] -> []
  | (first, _) :: rest ->
    let rest =
      List.map
        (fun (c, ms) ->
          (c, max 1 (int_of_float (Float.round (float_of_int n /. ms /. total)))))
        rest
    in
    (first, n - List.fold_left (fun a (_, k) -> a + k) 0 rest) :: rest

let boot () =
  let k = span "os.create" Kernel.create in
  let ldl = span "core.install" (fun () -> Ldl.install k) in
  Hemlock_runtime.Sync.install k;
  (k, ldl)

let compile k path src =
  let obj = span "cc.to_object" (fun () -> Cc.to_object ~name:(Filename.basename path) src) in
  span "sfs.write_file" (fun () -> Fs.write_file (Kernel.fs k) path (Objfile.serialize obj))

let link k ~home ~cli_dirs ~specs out =
  let ctx = { Search.fs = Kernel.fs k; cwd = Path.of_string ~cwd:Path.root home; env = [] } in
  ignore
    (span "lds.link" (fun () ->
         Lds.link ctx ~cli_dirs
           ~specs:(List.map (fun (n, c) -> { Lds.sp_name = n; sp_class = c }) specs)
           ~output:out ()))

(* spawn_exec + run of [prog]; true when it exits [code] having printed
   exactly [console]. *)
let exec k prog ~code ~console =
  Kernel.console_clear k;
  let p = span "os.spawn_exec" (fun () -> Kernel.spawn_exec k prog) in
  span "os.run" (fun () -> Kernel.run k);
  (match p.Proc.state with Proc.Zombie c -> c = code | _ -> false)
  && String.trim (Kernel.console k) = expect console

let fsck_clean fs = (span "sfs.fsck" (fun () -> Fs.fsck fs)).Fs.fsck_clean

(* Processes still in the kernels' tables, zombies included. *)
let procs_live ks =
  float_of_int (List.fold_left (fun n k -> n + List.length (Kernel.processes k)) 0 ks)

let delta f =
  let before = Stats.snapshot () in
  let r = f () in
  (r, Stats.diff ~before ~after:(Stats.snapshot ()))

(* ---------------------------------------------------------------------- *)
(* exec-storm: program start with lazy linking over the deep chain       *)
(* ---------------------------------------------------------------------- *)

let chain = 96

(* Short, middle and full prefixes of the chain. *)
let drivers = [| ("short", 8); ("middle", 48); ("full", chain - 1) |]

let exec_storm ~seed ~n =
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  span "sfs.mkdir" (fun () -> Fs.mkdir fs "/home/lib");
  (* Modgen.install compiles, writes and embeds the chain in one call;
     its time is the part of set-up the benchmark cannot split. *)
  let templates =
    Array.of_list
      (span "apps.modgen_install" (fun () ->
           Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules:chain))
  in
  let template_bytes = Array.map (fun p -> Fs.read_file fs p) templates in
  let prog (name, _) = "/home/" ^ name ^ "/prog" in
  Array.iter
    (fun ((name, used) as d) ->
      let home = "/home/" ^ name in
      span "sfs.mkdir" (fun () -> Fs.mkdir fs home);
      compile k (home ^ "/main.o") (Modgen.driver_source ~used);
      link k ~home ~cli_dirs:[ "/home/lib" ]
        ~specs:
          (("main.o", Sharing.Static_private)
          :: List.init chain (fun i -> (Printf.sprintf "mod%d.o" i, Sharing.Dynamic_private)))
        (prog d))
    drivers;
  let run d =
    let _, used = drivers.(d) in
    exec k (prog drivers.(d)) ~code:0
      ~console:(string_of_int (Modgen.expected ~modules:chain ~used))
  in
  (* Warm-up: record every driver's plans, replay them once, persist. *)
  Array.iteri (fun d _ -> if not (run d && run d) then fail_setup "exec-storm driver") drivers;
  ignore (span "core.stable_sync" (fun () -> Ldl.stable_sync ldl));
  let rng = Prng.create ~seed in
  (* Boots and colds are rare: each is the smallest whole-percent share
     that still gives its p50 ten samples at 10 run-seconds (2% of 600). *)
  let boots = max 1 (n * 2 / 100) and colds = max 1 (n * 2 / 100) in
  let sched = schedule rng [ ("boot", boots); ("cold", colds); ("warm", n - boots - colds) ] in
  (* Within a class, drivers go round-robin, so every seed runs each
     driver equally often; the shuffle decides the order.  A driver's
     cold rewrites step evenly through the templates it uses, from a
     seeded starting template. *)
  let nd = Array.length drivers in
  let start = Array.map (fun (_, used) -> Prng.int rng (used + 1)) drivers in
  let per_driver = (colds + nd - 1) / nd in
  let plan =
    Array.map
      (fun (cls, j) ->
        let d = j mod nd in
        let _, used = drivers.(d) in
        (cls, d, (start.(d) + (j / nd * (used + 1) / per_driver)) mod (used + 1)))
      sched
  in
  let op i =
    let cls, d, target = plan.(i) in
    let ok, st =
      delta (fun () ->
          match cls with
          | "boot" ->
            ignore (span "core.stable_sync" (fun () -> Ldl.stable_sync ldl));
            span "os.reboot" (fun () -> Kernel.reboot k);
            run d
          | "cold" ->
            (* the same bytes written back: a new template version, so
               the next exec must resolve again *)
            span "sfs.write_file" (fun () ->
                Fs.write_file fs templates.(target) template_bytes.(target));
            run d
          | _ -> run d)
    in
    let proves =
      match cls with
      | "boot" -> st.Stats.stable_loads > 0
      | "cold" -> st.Stats.plan_misses > 0
      | _ -> true
    in
    { cls; ok = ok && proves; query_ns = 0L }
  in
  {
    op;
    finish = (fun () -> [ ("fsck clean", fsck_clean fs) ]);
    counts = (fun () -> [ ("os.procs_live", procs_live [ k ]) ]);
  }

(* ---------------------------------------------------------------------- *)
(* compute: long-running code calling public modules, and fork with COW  *)
(* ---------------------------------------------------------------------- *)

(* The perf hot loop: it calls into two dynamically linked public
   modules, so every iteration crosses mapping boundaries.  The +i/-i
   runs cancel, leaving s = 16000 * 7 = 112000, and it exits 42. *)
let inc_a = "int inc_a() { return 3; }"

let inc_b = "int inc_b() { return 4; }"

let hot_loop =
  {|
extern int inc_a();
extern int inc_b();
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 16000) {
    s = s + inc_a();
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s + i; s = s + i; s = s + i; s = s + i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s - i; s = s - i; s = s - i; s = s - i;
    s = s + inc_b();
    i = i + 1;
  }
  return s - 111958;
}
|}

(* The perf-vm fork program: the parent dirties a 64-page heap, then 8
   children each write a heap page copy-on-write and exit; the parent's
   own copy stays untouched. *)
let fork_heap =
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
}
|}

(* Mean op latencies behind the mix, measured on a 2-core host, seed 1,
   --seconds 10 (PREDICTIONS.md, "Class mixes"). *)
let loop_mean_ms = 28.26
let fork_mean_ms = 1.067

let compute ~seed ~n =
  let k, _ldl = boot () in
  let fs = Kernel.fs k in
  span "sfs.mkdir" (fun () ->
      Fs.mkdir fs "/shared/lib";
      Fs.mkdir fs "/home/perf");
  compile k "/shared/lib/inc_a.o" inc_a;
  compile k "/shared/lib/inc_b.o" inc_b;
  compile k "/home/perf/main.o" hot_loop;
  compile k "/home/perf/fork.o" fork_heap;
  link k ~home:"/home/perf" ~cli_dirs:[]
    ~specs:
      [
        ("main.o", Sharing.Static_private);
        ("/shared/lib/inc_a.o", Sharing.Dynamic_public);
        ("/shared/lib/inc_b.o", Sharing.Dynamic_public);
      ]
    "prog";
  link k ~home:"/home/perf" ~cli_dirs:[] ~specs:[ ("fork.o", Sharing.Static_private) ]
    "forkprog";
  let run = function
    | "loop" -> exec k "/home/perf/prog" ~code:42 ~console:""
    | _ -> exec k "/home/perf/forkprog" ~code:0 ~console:"0"
  in
  if not (run "loop" && run "loop" && run "fork" && run "fork") then fail_setup "compute";
  let sched =
    schedule (Prng.create ~seed) (equal_time n [ ("fork", fork_mean_ms); ("loop", loop_mean_ms) ])
  in
  {
    op =
      (fun i ->
        let cls, _ = sched.(i) in
        { cls; ok = run cls; query_ns = 0L });
    finish = (fun () -> [ ("fsck clean", fsck_clean fs) ]);
    counts = (fun () -> [ ("os.procs_live", procs_live [ k ]) ]);
  }

(* ---------------------------------------------------------------------- *)
(* rwho-cluster: the paper's 65 machines gossiping over a LAN            *)
(* ---------------------------------------------------------------------- *)

let machines = 65

let cluster_domains = min 2 (Domain.recommended_domain_count ())

let rwho_cluster ~seed ~n:_ =
  let g =
    span "rwho.create" (fun () ->
        Gossip.create ~profile:Net.Lan ~seed ~domains:cluster_domains Rwho.Shared_db
          ~machines ())
  in
  let c = Gossip.cluster g in
  (* Per-machine user randomness, drawn only inside that machine's own
     processes, so the traffic is the same at every domain count. *)
  let rngs = Array.init machines (fun i -> Prng.stream ~seed:(seed + 0x515) ~index:i) in
  let execs = Array.make machines 0 and timeouts = Array.make machines 0 in
  let drive i k =
    ignore
      (Kernel.spawn_native k ~name:"user" (fun k proc ->
           let rng = rngs.(i) in
           let q = Printf.sprintf "user-m%d" i in
           if not (Kernel.msgq_exists k q) then Kernel.msgq_create k q ~capacity:4;
           for m = 1 to 3 do
             Kernel.msg_send k proc q (Bytes.make (16 + m) 'u');
             ignore (Kernel.msg_recv k proc q)
           done;
           let p = Prng.int rng (machines - 1) in
           let p = if p >= i then p + 1 else p in
           let cost = 50 + Prng.int rng 200 in
           (match
              Cluster.send_reliable c ~from:i ~dst:p
                (Serializer.to_binary
                   (Serializer.List [ Serializer.Str "exec"; Serializer.Int cost ]))
            with
           | Ok () -> execs.(i) <- execs.(i) + 1
           | Error _ -> timeouts.(i) <- timeouts.(i) + 1);
           0))
  in
  let sum a = Array.fold_left ( + ) 0 a in
  let epoch () = span "rwho.epoch" (fun () -> Gossip.epoch ~drive g) in
  for _ = 1 to 3 do
    epoch ()
  done;
  if span "rwho.converge" (fun () -> Gossip.converge g) = None then
    fail_setup "rwho-cluster did not converge";
  let rounds0 = Cluster.rounds c in
  let epochs = ref 0 in
  let op i =
    let before = sum execs in
    epoch ();
    incr epochs;
    let traffic_ok = sum execs - before = machines && sum timeouts = 0 in
    let m = i mod machines in
    let t0 = Span.now () in
    let who = span "rwho.rwho" (fun () -> Gossip.rwho g m) in
    let up = span "rwho.ruptime" (fun () -> Gossip.ruptime g m) in
    let query_ns = Int64.sub (Span.now ()) t0 in
    let hosts =
      List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' up))
    in
    {
      cls = "epoch";
      ok = traffic_ok && who <> "" && string_of_int hosts = expect (string_of_int machines);
      query_ns;
    }
  in
  let finish () =
    let converged = span "rwho.converge" (fun () -> Gossip.converge g) <> None in
    let who0 = Gossip.rwho g 0 and up0 = Gossip.ruptime g 0 in
    let same = ref true and clean = ref true in
    for i = 0 to machines - 1 do
      if Gossip.rwho g i <> who0 || Gossip.ruptime g i <> up0 then same := false;
      if not (fsck_clean (Kernel.fs (Cluster.machine c i))) then clean := false
    done;
    [
      ("gossip converged", converged);
      ("identical rwho/ruptime on every machine", !same);
      ("fsck clean on every machine", !clean);
    ]
  in
  let counts () =
    [
      ("os.procs_live", procs_live (List.init machines (Cluster.machine c)));
      ( "cluster.rounds_per_epoch",
        float_of_int (Cluster.rounds c - rounds0) /. float_of_int (max 1 !epochs) );
    ]
  in
  { op; finish; counts }

(* ---------------------------------------------------------------------- *)
(* shared-apps: the section 4 applications under bounded simulated RAM   *)
(* ---------------------------------------------------------------------- *)

let ram_pages = 64
let symtab_entries = 32768
let presto_iters = 300

(* Mean op latencies behind the mix, measured on a 2-core host, seed 1,
   --seconds 10 (PREDICTIONS.md, "Class mixes"). *)
let xfig_mean_ms = 1.590
let presto_mean_ms = 2.072
let symtab_mean_ms = 2.664

let shared_apps ~seed ~n =
  Vm_object.reset ();
  Vm_object.ram_pages := Some ram_pages;
  let k, ldl = boot () in
  let fs = Kernel.fs k in
  span "sfs.mkdir" (fun () -> Fs.mkdir fs "/shared/xfig");
  let tables_sum =
    string_of_int (Symtab.checksum (Symtab.gen_tables ~seed:7 ~entries:symtab_entries))
  in
  let symtab ~first_run =
    let r =
      span "apps.symtab" (fun () ->
          Symtab.run_hemlock ldl ~entries:symtab_entries ~app_id:"bench" ~first_run)
    in
    string_of_int r.Symtab.oc_checksum = expect tables_sum
  in
  let presto ~id ~workers =
    let got =
      span "apps.presto" (fun () ->
          Presto.run_hemlock ldl ~workers ~work_iters:presto_iters ~app_id:id)
    in
    let show l = String.concat "," (List.map string_of_int l) in
    show got = expect (show (Presto.expected_results ~workers ~work_iters:presto_iters))
  in
  (* A fresh figure per session: add [n_new] objects, duplicate them all,
     count, then remove the file so /shared never runs out of slots. *)
  let xfig ~id ~n_new =
    let path = Printf.sprintf "/shared/xfig/fig%d" id in
    let count = ref (-1) in
    span "apps.xfig" (fun () ->
        ignore
          (Kernel.spawn_native k ~name:"xfig" (fun k proc ->
               count := Xfig.shm_session k proc ~path ~n_new ~dup:true;
               0));
        Kernel.run k);
    span "sfs.unlink" (fun () -> Fs.unlink fs path);
    string_of_int !count = expect (string_of_int (2 * n_new))
  in
  if not (symtab ~first_run:true && symtab ~first_run:false) then fail_setup "symtab";
  if not (presto ~id:"warm" ~workers:4) then fail_setup "presto";
  if not (xfig ~id:(-1) ~n_new:24) then fail_setup "xfig";
  let rng = Prng.create ~seed in
  let sched =
    schedule rng
      (equal_time n
         [ ("xfig", xfig_mean_ms); ("presto", presto_mean_ms); ("symtab", symtab_mean_ms) ])
  in
  (* Sizes stride through their range (401 is prime, so 248 steps visit
     every size once per 401 sessions) from a seeded start: every seed
     adds nearly the same objects in each tenth of the run, and forks
     the same workers. *)
  let x0 = Prng.int rng 401 and w0 = Prng.int rng 3 in
  let op i =
    let cls, j = sched.(i) in
    let ok =
      match cls with
      | "presto" -> presto ~id:(Printf.sprintf "op%d" i) ~workers:(2 + ((w0 + j) mod 3))
      | "symtab" -> symtab ~first_run:false
      | _ -> xfig ~id:i ~n_new:(400 + ((x0 + (j * 248)) mod 401))
    in
    { cls; ok; query_ns = 0L }
  in
  {
    op;
    finish = (fun () -> [ ("fsck clean", fsck_clean fs) ]);
    counts = (fun () -> [ ("os.procs_live", procs_live [ k ]) ]);
  }

let all =
  [
    { name = "exec-storm"; ops_per_run_second = 60.; domains = 1; setup = exec_storm };
    { name = "compute"; ops_per_run_second = 120.; domains = 1; setup = compute };
    {
      name = "rwho-cluster";
      ops_per_run_second = 15.;
      domains = cluster_domains;
      setup = rwho_cluster;
    };
    { name = "shared-apps"; ops_per_run_second = 300.; domains = 1; setup = shared_apps };
  ]
