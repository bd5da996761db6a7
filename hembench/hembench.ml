(* hembench: the repository's end-to-end benchmark.

   hembench --workload W --seed N --seconds S --trace 0|1
            [--rev R] [--billed FILE] [--ops N] [--setups K] [--sabotage OP]

   Runs one workload of [Workloads.all] as a closed loop and prints a
   human-readable report, then, as the last line, one JSON object with
   the keys "correct", "attempted", "failed" and "metrics".

   --trace 0  the end-to-end metrics, from an untraced run; set-up is
              timed K times (default 5) and the median reported: the
              measured pass's own set-up, then K - 1 more after it.
   --trace 1  the per-layer metrics, from a run with spans around every
              call the benchmark makes into a layer.  The same work first
              runs untraced in a fresh process (this program again, with
              --trace 0), which gives the tracing overhead and the
              per-class latencies, and must bill the same costs.
   --seconds  sets the amount of work, [Workloads.t.ops_per_run_second]
              times S ops: the same ops on every commit.  Per-op cost
              grows with the ops already run (top-level processes are
              never reaped), so equal time would not be equal work, and
              the same growth bounds the work by memory.
   --billed   file of recorded billed-cost digests ("workload seed ops
              digest" lines); a run whose seed and size are recorded
              must bill exactly the same simulated costs.
   --ops      override the op count (the self-test's tiny runs).
   --sabotage make op OP's expected answer wrong (the self-test). *)

module Stats = Hemlock_util.Stats
module Vm_object = Hemlock_vm.Vm_object

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("hembench: " ^ s);
      exit 2)
    fmt

(* ---------------------------------------------------------------------- *)
(* One pass: set-up, the measured ops, the end-of-run checks              *)
(* ---------------------------------------------------------------------- *)

type pass = {
  setup_s : float list;
  lat_ms : (string * float) array;  (** per op: class and wall time *)
  query_ms : float list;
  failed : int;
  loop_s : float;
  d_ops : Stats.t;  (** counters over the measured ops *)
  d_pass : Stats.t;  (** counters over set-up, ops and checks *)
  checks : (string * bool) list;
  billed : string;  (** digest of every op's billed simulated costs *)
  heap_growth_words : int;
  peak_heap_words : int;  (** [Gc] [top_heap_words] when the pass ends *)
  minor_words : float;
  major_collections : int;
  counts : (string * float) list;
  spans : Span.t list;
}

let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* Keep every core the workload will use busy for a second before
   anything is measured.  On an idle host the first second of a
   two-domain run is markedly slower (a core waking up); the spin takes
   that out of the measurement and out of set-up time. *)
let warm_cores domains =
  let spin () =
    let t0 = Span.now () and x = ref 0 in
    while secs t0 (Span.now ()) < 1.0 do
      x := Sys.opaque_identity (!x + 1)
    done
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn spin) in
  spin ();
  List.iter Domain.join others

let run_pass (w : Workloads.t) ~seed ~n ~trace =
  Span.reset ();
  Span.on := trace;
  Span.op := -1;
  let p0 = Stats.snapshot () in
  let t0 = Span.now () in
  let inst = Span.span "bench.setup" (fun () -> w.setup ~seed ~n) in
  let setup_s = [ secs t0 (Span.now ()) ] in
  Gc.full_major ();
  let q0 = Gc.quick_stat () in
  let s0 = Stats.snapshot () in
  let lat = Array.make n ("", 0.) and query = ref [] and failed = ref 0 in
  let billed = Buffer.create (n * 32) in
  let t_start = Span.now () in
  for i = 0 to n - 1 do
    Span.op := i;
    let before = Stats.snapshot () in
    let t0 = Span.now () in
    let o =
      try Span.span "bench.op" (fun () -> inst.Workloads.op i)
      with e ->
        Printf.printf "op %d raised %s\n" i (Printexc.to_string e);
        { Workloads.cls = "raised"; ok = false; query_ns = 0L }
    in
    let t1 = Span.now () in
    let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
    Printf.bprintf billed "%s %d %d %d %d %d;" o.cls d.Stats.instructions d.faults
      d.syscalls d.context_switches (Stats.cycles d);
    lat.(i) <- (o.cls, secs t0 t1 *. 1e3);
    if o.query_ns > 0L then query := (Int64.to_float o.query_ns *. 1e-6) :: !query;
    if not o.ok then begin
      incr failed;
      Printf.printf "op %d (%s) failed its check\n" i o.cls
    end
  done;
  let t_end = Span.now () in
  let d_ops = Stats.diff ~before:s0 ~after:(Stats.snapshot ()) in
  let q1 = Gc.quick_stat () in
  Span.op := -1;
  let counts = inst.counts () in
  let checks = Span.span "bench.finish" inst.finish in
  Span.on := false;
  {
    setup_s;
    lat_ms = lat;
    query_ms = !query;
    failed = !failed;
    loop_s = secs t_start t_end;
    d_ops;
    d_pass = Stats.diff ~before:p0 ~after:(Stats.snapshot ());
    checks;
    billed = Digest.to_hex (Digest.string (Buffer.contents billed));
    heap_growth_words = q1.Gc.heap_words - q0.Gc.heap_words;
    peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
    major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
    counts;
    spans = Span.spans ();
  }

(* Further set-ups, each on its own, after the measured pass: the
   measured ops always follow exactly one set-up in a fresh process, so
   billed costs that depend on process-wide counters (segment ids end up
   in persisted link plans) repeat from run to run. *)
let time_setups (w : Workloads.t) ~seed ~n k =
  List.init k (fun _ ->
      Gc.full_major ();
      let t0 = Span.now () in
      ignore (Sys.opaque_identity (w.setup ~seed ~n));
      secs t0 (Span.now ()))

(* ---------------------------------------------------------------------- *)
(* Statistics                                                             *)
(* ---------------------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* 0 for no samples: a class the workload does not have. *)
let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it
   (nearest rank); the maximum when there are too few samples. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  let rank p = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  match List.find_opt (fun p -> n - rank p >= 10) [ 99.9; 99.; 98.; 95.; 90.; 75.; 50. ] with
  | Some p -> (Printf.sprintf "p%g" p, a.(max 0 (rank p - 1)), n - rank p)
  | None -> ("max", (if n = 0 then 0. else a.(n - 1)), 0)

let class_ms p cls =
  Array.to_list p.lat_ms |> List.filter (fun (c, _) -> c = cls) |> List.map snd

let all_ms p = Array.to_list (Array.map snd p.lat_ms)

let fi = float_of_int

let per p x = fi x /. fi (max 1 (Array.length p.lat_ms))

let ratio a b = if a + b = 0 then 0. else fi a /. fi (a + b)

(* ---------------------------------------------------------------------- *)
(* Metrics                                                                *)
(* ---------------------------------------------------------------------- *)

let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1e6

let end_to_end p =
  let n = Array.length p.lat_ms in
  let _, tail_v, _ = tail (all_ms p) in
  [
    ("setup_s", median p.setup_s, "s");
    ("ops_per_s", fi n /. p.loop_s, "1/s");
    ("op_p50_ms", median (all_ms p), "ms");
    ("op_tail_ms", tail_v, "ms");
    ("sim_mips", fi p.d_ops.Stats.instructions /. p.loop_s /. 1e6, "MIPS");
    ("peak_heap_mb", mb_of_words p.peak_heap_words, "MB");
  ]

(* Span aggregates by name: calls, total and self time in ms, over the
   spans [keep] selects. *)
let span_ms ?(keep = fun _ -> true) spans name =
  List.fold_left
    (fun (c, tot, self) s ->
      if s.Span.name = name && keep s then
        (c + 1, tot +. (Int64.to_float (Span.duration s) *. 1e-6),
         self +. (Int64.to_float (Span.self_ns s) *. 1e-6))
      else (c, tot, self))
    (0, 0., 0.) spans

let mean_ms spans name =
  let c, tot, _ = span_ms spans name in
  if c = 0 then 0. else tot /. fi c

let setup_total_ms spans name =
  let _, tot, _ = span_ms ~keep:(fun s -> s.Span.sp_op < 0) spans name in
  tot

let layers = [ "bench"; "os"; "core"; "cc"; "lds"; "sfs"; "rwho"; "apps" ]

(* What the traced run takes from its untraced twin, a fresh process
   doing the same work. *)
type baseline = {
  b_loop_s : float;
  b_billed : string;
  b_correct : bool;
  b_boot_p50_ms : float;
  b_cold_p50_ms : float;
  b_query_p50_ms : float;
}

let baseline_line ~correct p =
  Printf.sprintf "baseline: %.17g %s %b %.17g %.17g %.17g" p.loop_s p.billed correct
    (median (class_ms p "boot")) (median (class_ms p "cold")) (median p.query_ms)

let parse_baseline line =
  match String.split_on_char ' ' line with
  | [ "baseline:"; loop; billed; correct; boot; cold; query ] -> (
    try
      Some
        {
          b_loop_s = float_of_string loop;
          b_billed = billed;
          b_correct = bool_of_string correct;
          b_boot_p50_ms = float_of_string boot;
          b_cold_p50_ms = float_of_string cold;
          b_query_p50_ms = float_of_string query;
        }
    with Failure _ | Invalid_argument _ -> None)
  | _ -> None

let per_layer ~(base : baseline) (p : pass) =
  let d = p.d_ops and sp = p.spans in
  let self_of layer =
    List.fold_left
      (fun acc s ->
        if Span.layer s.Span.name = layer then acc +. (Int64.to_float (Span.self_ns s) *. 1e-6)
        else acc)
      0. sp
  in
  let ops_ms =
    let _, tot, _ = span_ms sp "bench.op" in
    tot
  in
  let run_self_in_ops =
    let _, _, self = span_ms ~keep:(fun s -> s.Span.sp_op >= 0) sp "os.run" in
    self
  in
  let count name = Option.value (List.assoc_opt name p.counts) ~default:0. in
  [
    ("isa.insns_per_op", per p d.Stats.instructions, "insn/op");
    ("isa.jit_compiles", fi d.jit_compiles, "count");
    ( "isa.jit_exit_ratio",
      (if d.jit_hits = 0 then 0. else fi d.jit_exits /. fi d.jit_hits),
      "ratio" );
    ("isa.jit_invalidations", fi d.jit_invalidations, "count");
    ( "isa.decode_hits_per_kinsn",
      (if d.instructions = 0 then 0. else fi d.decode_hits /. (fi d.instructions /. 1000.)),
      "1/kinsn" );
    ("vm.tlb_hit_ratio", ratio d.tlb_hits d.tlb_misses, "ratio");
    ("vm.cow_faults_per_op", per p d.cow_faults, "1/op");
    ("vm.pages_copied_per_op", per p d.pages_copied, "pages/op");
    ("vm.major_faults_per_op", per p d.major_faults, "1/op");
    ("vm.pages_evicted_per_op", per p d.pages_evicted, "pages/op");
    ("vm.pages_written_back_per_op", per p d.pages_written_back, "pages/op");
    ("vm.resident_pages_peak", fi (Vm_object.peak_resident ()), "pages");
    ("sfs.journal_replays", fi p.d_pass.Stats.journal_replays, "count");
    ("sfs.fsck_ms", (let _, tot, _ = span_ms sp "sfs.fsck" in tot), "ms");
    ("sfs.write_file_ms", mean_ms sp "sfs.write_file", "ms");
    ("core.lazy_faults_per_op", per p d.faults, "1/op");
    ("core.symbols_resolved_per_op", per p d.symbols_resolved, "1/op");
    ("core.sym_hash_hit_ratio", ratio d.sym_hash_hits d.sym_hash_misses, "ratio");
    ("core.search_cache_hits_per_op", per p d.search_cache_hits, "1/op");
    ("core.plan_hit_ratio", ratio d.plan_hits d.plan_misses, "ratio");
    ("core.plan_fallbacks", fi d.plan_fallbacks, "count");
    ("core.stable_loads", fi d.stable_loads, "count");
    ("core.stable_rejects", fi d.stable_rejects, "count");
    ("core.stable_persists", fi d.stable_persists, "count");
    ("core.stable_sync_ms", mean_ms sp "core.stable_sync", "ms");
    ("core.lds_link_ms", setup_total_ms sp "lds.link", "ms");
    ("cc.compile_ms", setup_total_ms sp "cc.to_object", "ms");
    ("apps.modgen_install_ms", setup_total_ms sp "apps.modgen_install", "ms");
    ("os.reboot_ms", mean_ms sp "os.reboot", "ms");
    ("os.spawn_exec_ms", mean_ms sp "os.spawn_exec", "ms");
    ("os.run_ms", mean_ms sp "os.run", "ms");
    ( "os.run_unsplit_pct",
      (if ops_ms = 0. then 0. else 100. *. run_self_in_ops /. ops_ms),
      "%" );
    ("os.syscalls_per_op", per p d.syscalls, "1/op");
    ("os.context_switches_per_op", per p d.context_switches, "1/op");
    ("os.messages_per_op", per p d.messages_sent, "1/op");
    ("os.procs_live", count "os.procs_live", "count");
    ("cluster.epoch_ms", mean_ms sp "rwho.epoch", "ms");
    ("cluster.rounds_per_epoch", count "cluster.rounds_per_epoch", "1/epoch");
    ("net.delivered_ratio", ratio d.net_delivered d.net_dropped, "ratio");
    ("net.retransmits_per_op", per p d.net_retransmits, "1/op");
    ("apps.xfig_ms", mean_ms sp "apps.xfig", "ms");
    ("apps.symtab_ms", mean_ms sp "apps.symtab", "ms");
    ("apps.presto_ms", mean_ms sp "apps.presto", "ms");
    ("gc.minor_words_per_op", p.minor_words /. fi (max 1 (Array.length p.lat_ms)), "words/op");
    ("gc.major_collections", fi p.major_collections, "count");
    ( "gc.heap_mb_per_kop",
      mb_of_words p.heap_growth_words /. (fi (max 1 (Array.length p.lat_ms)) /. 1000.),
      "MB/kop" );
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_ms" l, self_of l, "ms")) layers
  @ [
      ("trace.overhead_pct", 100. *. ((p.loop_s /. base.b_loop_s) -. 1.), "%");
      ("exec.boot_p50_ms", base.b_boot_p50_ms, "ms");
      ("exec.cold_p50_ms", base.b_cold_p50_ms, "ms");
      ("rwho.query_p50_ms", base.b_query_p50_ms, "ms");
    ]

(* ---------------------------------------------------------------------- *)
(* Output                                                                 *)
(* ---------------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          metrics))

let recorded_billed file ~workload ~seed ~ops =
  match file with
  | None -> None
  | Some f when not (Sys.file_exists f) -> None
  | Some f ->
    In_channel.with_open_text f In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; o; digest ]
             when w = workload && s = string_of_int seed && o = string_of_int ops ->
             Some digest
           | _ -> None)

let report_pass label p =
  let n = Array.length p.lat_ms in
  Printf.printf "%s: %d ops in %.3f s, %d failed\n" label n p.loop_s p.failed;
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-42s %s\n" name (if ok then "ok" else "FAILED"))
    p.checks;
  (* Per-class latencies: the measurements the class mixes rest on (see
     PREDICTIONS.md). *)
  let classes =
    Array.fold_left (fun acc (c, _) -> if List.mem c acc then acc else acc @ [ c ]) [] p.lat_ms
  in
  List.iter
    (fun c ->
      let l = class_ms p c in
      let tot = List.fold_left ( +. ) 0. l in
      Printf.printf "  class %-8s %5d ops, mean %9.4f ms, p50 %9.4f ms, %5.1f%% of op time\n" c
        (List.length l) (tot /. fi (List.length l)) (median l)
        (100. *. tot /. List.fold_left ( +. ) 0. (all_ms p)))
    classes

(* The untraced twin of a traced run: this program again, in a fresh
   process with the same arguments and --trace 0. *)
let run_twin args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let line =
    List.find_opt (String.starts_with ~prefix:"baseline: ") (String.split_on_char '\n' out)
  in
  match (status, Option.bind line parse_baseline) with
  | Unix.WEXITED 0, Some b -> b
  | _ -> die "the untraced twin run failed:\n%s" out

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rev = ref "unknown" and billed_file = ref None and ops = ref 0 and setups = ref 5 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  amount of work, in reference-host seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--rev", Arg.Set_string rev, "R  source revision to record");
      ("--billed", Arg.String (fun f -> billed_file := Some f), "FILE  recorded billed digests");
      ("--ops", Arg.Set_int ops, "N  override the op count");
      ("--setups", Arg.Set_int setups, "K  set-ups timed for setup_s (default 5)");
      ( "--sabotage",
        Arg.Int (fun i -> Workloads.sabotage := Some i),
        "OP  make op OP's expected answer wrong" );
    ]
    (fun a -> die "unexpected argument %s" a)
    "hembench --workload W --seed N --seconds S --trace 0|1";
  (* The HEMLOCK_* switches (kill switches, RAM budget, net profile,
     domain count, fault plans) would silently measure another program. *)
  let env =
    List.filter (String.starts_with ~prefix:"HEMLOCK_") (Array.to_list (Unix.environment ()))
  in
  if env <> [] then die "refusing to run with %s set" (String.concat ", " env);
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      die "--workload must be one of: %s"
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  if !seed < 0 then die "--seed must be given (a non-negative integer)";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !setups < 1 then die "--setups must be at least 1";
  let n =
    if !ops > 0 then !ops else int_of_float (Float.round (w.ops_per_run_second *. fi !seconds))
  in
  Printf.printf "hembench %s seed %d: %d ops, trace %d\n" w.name !seed n !trace;
  Printf.printf "host cores %d, domains used %d, OCaml %s, rev %s\n%!"
    (Domain.recommended_domain_count ()) w.domains Sys.ocaml_version !rev;
  let traced = !trace = 1 in
  let twin_args =
    [ "--workload"; w.name; "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds;
      "--trace"; "0"; "--setups"; "1"; "--ops"; string_of_int n; "--rev"; !rev ]
    @ Option.fold ~none:[] ~some:(fun f -> [ "--billed"; f ]) !billed_file
    @ Option.fold ~none:[] ~some:(fun i -> [ "--sabotage"; string_of_int i ]) !Workloads.sabotage
  in
  let base = if traced then Some (run_twin twin_args) else None in
  warm_cores w.domains;
  let p = run_pass w ~seed:!seed ~n ~trace:traced in
  report_pass (if traced then "traced" else "untraced") p;
  let p =
    if traced then p
    else { p with setup_s = p.setup_s @ time_setups w ~seed:!seed ~n (!setups - 1) }
  in
  if traced then begin
    if not (Sys.file_exists ".hembench") then Sys.mkdir ".hembench" 0o755;
    let path = Printf.sprintf ".hembench/trace-%s-s%d.jsonl" w.name !seed in
    Span.write p.spans path;
    Printf.printf "wrote %d spans to %s\n" (List.length p.spans) path
  end;
  let attempted = Array.length p.lat_ms in
  (* Billed simulated costs are the deterministic contract: they must
     match the recorded digest for this seed and size, and tracing must
     not change them. *)
  let recorded = recorded_billed !billed_file ~workload:w.name ~seed:!seed ~ops:n in
  let same_as what r =
    Printf.printf "billed %s the %s\n"
      (if r = p.billed then "matches" else "DIFFERS from")
      what;
    r = p.billed
  in
  Printf.printf "billed: %s %d %d %s\n" w.name !seed n p.billed;
  let billed_ok =
    Option.fold ~none:true ~some:(same_as "recorded digest") recorded
    && Option.fold ~none:true ~some:(fun b -> same_as "untraced twin" b.b_billed) base
  in
  Printf.printf "billed totals: %d instructions, %d faults, %d syscalls, %d cycles\n"
    p.d_ops.Stats.instructions p.d_ops.faults p.d_ops.syscalls (Stats.cycles p.d_ops);
  let failed = p.failed in
  let correct =
    List.for_all snd p.checks && failed = 0 && billed_ok
    && Option.fold ~none:true ~some:(fun b -> b.b_correct) base
  in
  Printf.printf "fail_frac %.6f (%d of %d ops)\n" (fi failed /. fi (max 1 attempted)) failed
    attempted;
  let tail_p, _, beyond = tail (all_ms p) in
  Printf.printf "op_tail_ms is %s over %d samples (%d beyond it)\n" tail_p attempted beyond;
  let show_p50 name l =
    if l <> [] then Printf.printf "%-28s %.4f ms (%d samples)\n" name (median l) (List.length l)
  in
  show_p50 "boot_p50_ms" (class_ms p "boot");
  show_p50 "cold_p50_ms" (class_ms p "cold");
  show_p50 "query_p50_ms" p.query_ms;
  let metrics =
    match base with None -> end_to_end p | Some base -> per_layer ~base p
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.4f %s\n" name v unit) metrics;
  if not traced then print_endline (baseline_line ~correct p);
  print_endline (result_json ~correct ~attempted ~failed metrics)
