(* Stable linking: persisted link plans and symbol indexes under
   /shared/.stable.  Covers stable-boot ≡ cold-boot equivalence (output
   and simulated costs), invalidation on module rewrite and on an
   instance-digest mismatch, corrupt-file reaping, crash and error
   injection during a persist, and the janitor's policy over the
   stable namespace. *)

open Harness
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault
module Segment = Hemlock_vm.Segment
module Modgen = Hemlock_apps.Modgen
module Link_plan = Hemlock_linker.Link_plan
module Stable_link = Hemlock_linker.Stable_link
module Janitor = Hemlock_runtime.Janitor

let with_stable v f =
  let saved = !Stable_link.enabled in
  Stable_link.enabled := v;
  Fun.protect ~finally:(fun () -> Stable_link.enabled := saved) f

(* A deep chain: the driver names every module, so the whole workload
   rides the root scope — the shape the stable-boot bench measures. *)
let build_deep_chain (_k, ldl) ~modules =
  let fs = Kernel.fs (Ldl.kernel ldl) in
  Fs.mkdir fs "/home/lib";
  ignore (Modgen.install ~deep:true ldl ~dir:"/home/lib" ~modules);
  Modgen.link_driver ~deep:modules ldl ~dir:"/home/lib" ~out:"/home/d/prog"
    ~used:(modules - 1);
  string_of_int (Modgen.expected ~modules ~used:(modules - 1))

let exec_measured k prog =
  let out = ref "" in
  let (), d =
    Stats.measure (fun () ->
        let _, console = run_program k prog in
        out := console)
  in
  (String.trim !out, d)

(* The billed cost model: everything the simulation charges for.  The
   stable boot path must leave every one of these untouched. *)
let billed d =
  ( d.Stats.instructions,
    d.Stats.faults,
    d.Stats.syscalls,
    d.Stats.context_switches,
    Stats.cycles d,
    d.Stats.symbols_resolved,
    d.Stats.modules_linked,
    d.Stats.relocs_applied,
    d.Stats.bytes_copied,
    d.Stats.pages_mapped )

(* ----- stable-boot ≡ cold-boot -------------------------------------------- *)

(* One machine persists its plans and reboots warm; an identical twin
   reboots with stable linking off.  First-exec console output and the
   whole billed cost model must agree exactly — the persisted files may
   only move host-side work. *)
let boot_equivalence modules =
  with_stable true (fun () ->
      let first_exec stable =
        let ((k, _) as m) = boot () in
        let want = build_deep_chain m ~modules in
        let out0, _ = exec_measured k "/home/d/prog" in
        if out0 <> want then Alcotest.failf "seed exec output %s, want %s" out0 want;
        if stable then ignore (Ldl.stable_sync (snd m));
        Stable_link.enabled := stable;
        Kernel.reboot k;
        Stable_link.enabled := true;
        let out, d = exec_measured k "/home/d/prog" in
        if out <> want then Alcotest.failf "first exec output %s, want %s" out want;
        (out, d)
      in
      let out_stable, d_stable = first_exec true in
      let out_cold, d_cold = first_exec false in
      out_stable = out_cold
      && billed d_stable = billed d_cold
      && ((not !Link_plan.enabled)
         || (d_stable.Stats.stable_loads > 0 && d_cold.Stats.stable_loads = 0)))

let prop_boot_equivalence =
  prop "stable boot ≡ cold boot: output and simulated costs" ~count:6
    ~print:string_of_int
    QCheck2.Gen.(int_range 3 10)
    boot_equivalence

(* ----- templates of exited processes ------------------------------------ *)

(* The 96-module deep driver runs to exit and is reaped before the sync:
   [stable_sync] must still persist every template it decoded, and the
   stable boot that follows must replay at the cold boot's billed cost. *)
let sync_sees_exited_templates () =
  with_stable true (fun () ->
      let modules = 96 in
      let first_exec stable =
        let ((k, ldl) as m) = boot () in
        let want = build_deep_chain m ~modules in
        let proc, out0 = run_program k "/home/d/prog" in
        check_string "seed exec" want (String.trim out0);
        check_bool "seed process reaped" true (Kernel.find_proc k proc.Proc.pid = None);
        check_int "no link state left" 0 (Ldl.live_states ldl);
        if stable then
          check_int "symbol indexes persisted"
            (if !Link_plan.enabled then modules else 0)
            (Ldl.stable_sync ldl).Ldl.sync_objs;
        Stable_link.enabled := stable;
        Kernel.reboot k;
        Stable_link.enabled := true;
        let out, d = exec_measured k "/home/d/prog" in
        check_string "first exec after reboot" want out;
        d
      in
      let d_stable = first_exec true in
      let d_cold = first_exec false in
      check_bool "stable boot bills as the cold boot" true (billed d_stable = billed d_cold);
      if !Link_plan.enabled then
        check_bool "stable plans replayed" true
          (d_stable.Stats.stable_loads > 0 && d_cold.Stats.stable_loads = 0))

(* ----- invalidation -------------------------------------------------------- *)

(* Rewriting a module between boots moves its template content identity,
   which moves the instance-set digest baked into every plan key: the
   stable files must fall back cold and the exec must see the new
   data. *)
let rewrite_invalidates_stable_plans () =
  with_stable true (fun () ->
      let ((k, ldl) as m) = boot () in
      let modules = 4 in
      let want = build_deep_chain m ~modules in
      let out0, _ = exec_measured k "/home/d/prog" in
      check_string "seed exec" want out0;
      ignore (Ldl.stable_sync ldl);
      (* Rewrite the terminal module's datum: every caller's sum
         changes. *)
      install_c k (Printf.sprintf "/home/lib/mod%d.o" (modules - 1))
        (Printf.sprintf {|
int d%d = 999;
int f%d(int x) {
  return d%d;
}
|}
           (modules - 1) (modules - 1) (modules - 1));
      Lds.embed_metadata (ctx_in k "/" ())
        ~template:(Printf.sprintf "/home/lib/mod%d.o" (modules - 1))
        ~modules:[] ~search_path:[ "/home/lib" ];
      Kernel.reboot k;
      let want' =
        (* same recursion as [Modgen.expected], terminal datum now 999 —
           which every level's [d_i + d_{i+1}] term also picks up *)
        let datum i = if i = modules - 1 then 999 else 100 + i in
        let rec f i x =
          if x < 1 then datum i else f (i + 1) (x - 1) + datum i + datum (i + 1)
        in
        string_of_int (f 0 (modules - 1))
      in
      let out, d = exec_measured k "/home/d/prog" in
      check_string "rewritten module visible on the stable boot" want' out;
      if !Link_plan.enabled then
        check_int "stale stable plans are not replayed" 0 d.Stats.plan_hits)

(* A rewrite through the template file's backing segment bumps neither
   Fs.generation nor the file path — but the fresh decode's content
   identity no longer matches the plan's recorded dependency, so the
   replay verifies false, rejects, and reaps the stable file. *)
let mapped_rewrite_rejects_and_reaps () =
  with_stable true (fun () ->
      let ((k, ldl) as m) = boot () in
      let fs = Kernel.fs k in
      ignore m;
      Fs.mkdir fs "/home/lib";
      (* Non-deep chain: each link region instantiates its successor, so
         plans carry dependency entries for replay to verify. *)
      ignore (Modgen.install ldl ~dir:"/home/lib" ~modules:4);
      Modgen.link_driver ldl ~dir:"/home/lib" ~out:"/home/d/prog" ~used:3;
      let want = string_of_int (Modgen.expected ~modules:4 ~used:3) in
      let out0, _ = exec_measured k "/home/d/prog" in
      check_string "seed exec" want out0;
      let report = Ldl.stable_sync ldl in
      if !Link_plan.enabled then
        check_bool "plans persisted" true (report.Ldl.sync_plans > 0);
      let stable_files () =
        match Fs.readdir fs Stable_link.dir with
        | names -> List.length names
        | exception Fs.Error _ -> 0
      in
      let persisted = stable_files () in
      (* Rewrite mod1 through its segment: invisible to the FS
         generation, visible to the content identity. *)
      let obj =
        {
          (Cc.to_object ~name:"mod1.o"
             {|
extern int f2(int x);
extern int d2;
int d1 = 500;
int f1(int x) {
  if (x < 1) { return d1; }
  return f2(x - 1) + d1 + d2;
}
|})
          with
          Objfile.own_modules = [ "mod2.o" ];
          own_search_path = [ "/home/lib" ];
        }
      in
      let gen0 = Fs.generation fs in
      let seg = Fs.segment_of fs "/home/lib/mod1.o" in
      Segment.resize seg 0;
      Segment.blit_in seg ~dst_off:0 (Objfile.serialize obj);
      check_int "mapped rewrite invisible to the FS generation" gen0 (Fs.generation fs);
      Kernel.reboot k;
      let out, d = exec_measured k "/home/d/prog" in
      check_bool "exec after the mapped rewrite sees the new data" true
        (out <> want && out <> "");
      if !Link_plan.enabled then begin
        check_bool "mismatched stable files rejected" true (d.Stats.stable_rejects > 0);
        check_bool "rejected files reaped" true (stable_files () < persisted)
      end)

(* ----- corrupt persisted plan ---------------------------------------------- *)

let corrupt_plan_is_reaped () =
  with_stable true (fun () ->
      let ((k, ldl) as m) = boot () in
      let fs = Kernel.fs k in
      let want = build_deep_chain m ~modules:4 in
      let out0, _ = exec_measured k "/home/d/prog" in
      check_string "seed exec" want out0;
      ignore (Ldl.stable_sync ldl);
      if !Link_plan.enabled then begin
        let plan_files () =
          match Fs.readdir fs Stable_link.dir with
          | names ->
            List.filter_map
              (fun n ->
                if String.length n >= 5 && String.sub n 0 5 = "plan-" then
                  Some (Stable_link.dir ^ "/" ^ n)
                else None)
              names
          | exception Fs.Error _ -> []
        in
        let victim =
          match plan_files () with
          | p :: _ -> p
          | [] -> Alcotest.fail "no persisted plan files"
        in
        (* Flip the last byte: the sealed digest no longer matches. *)
        let b = Fs.read_file fs victim in
        Bytes.set b
          (Bytes.length b - 1)
          (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
        Fs.write_file fs victim b;
        Kernel.reboot k;
        let out, _ = exec_measured k "/home/d/prog" in
        check_string "exec correct despite the corrupt plan" want out;
        check_bool "corrupt plan reaped on its failed load" true
          (not (Fs.exists fs victim))
      end)

(* ----- injected failures during a persist ---------------------------------- *)

let crash_during_persist_recovers () =
  with_stable true (fun () ->
      let ((k, ldl) as m) = boot () in
      let fs = Kernel.fs k in
      let want = build_deep_chain m ~modules:4 in
      let out0, _ = exec_measured k "/home/d/prog" in
      check_string "seed exec" want out0;
      if !Link_plan.enabled then begin
        Fault.configure "fs.stable@1=crash";
        (match Ldl.stable_sync ldl with
        | (_ : Ldl.sync_report) -> Alcotest.fail "expected a crash mid-persist"
        | exception Fault.Crash _ -> ());
        Fault.clear ();
        Fs.rescan_shared fs;
        let report = Fs.fsck fs in
        check_bool "recovery fsck clean after crash mid-persist" true
          report.Fs.fsck_clean;
        let out, _ = exec_measured k "/home/d/prog" in
        check_string "exec correct after the crash" want out;
        (* A recoverable error degrades to not-persisted, never fails
           the sync. *)
        Fault.configure "fs.stable@1=eio";
        let r2 =
          Fun.protect ~finally:Fault.clear (fun () -> Ldl.stable_sync ldl)
        in
        check_bool "injected error skips one file, sync completes" true
          (r2.Ldl.sync_plans + r2.Ldl.sync_objs + r2.Ldl.sync_skipped > 0)
      end)

(* ----- janitor policy over /shared/.stable --------------------------------- *)

let janitor_reaps_stale_stable_files () =
  with_stable true (fun () ->
      let ((k, ldl) as m) = boot () in
      let fs = Kernel.fs k in
      let want = build_deep_chain m ~modules:3 in
      let out0, _ = exec_measured k "/home/d/prog" in
      check_string "seed exec" want out0;
      ignore (Ldl.stable_sync ldl);
      Stable_link.ensure_dir fs;
      (* A truncated file (crash artifact the journal could not see) and
         a plain impostor: both fail to decode, both must go. *)
      Fs.write_file fs (Stable_link.dir ^ "/plan-deadbeef")
        (Bytes.of_string "HSPL");
      Fs.write_file fs (Stable_link.dir ^ "/junk") (Bytes.of_string "not a plan");
      let survivors_before =
        match Fs.readdir fs Stable_link.dir with names -> names
      in
      let victims =
        Janitor.reap k ~policy:(Janitor.orphan_policy k ~flagged:[])
      in
      let reaped p = List.exists (fun e -> e.Janitor.j_path = p) victims in
      check_bool "truncated stable file reaped" true
        (reaped (Stable_link.dir ^ "/plan-deadbeef"));
      check_bool "impostor reaped" true (reaped (Stable_link.dir ^ "/junk"));
      if !Link_plan.enabled then begin
        let survivors =
          match Fs.readdir fs Stable_link.dir with names -> names
        in
        check_int "every well-formed stable file kept"
          (List.length survivors_before - 2)
          (List.length survivors)
      end)

let suite =
  [
    prop_boot_equivalence;
    test "stable sync: exited processes' templates persist" sync_sees_exited_templates;
    test "stable plans: module rewrite between boots falls back cold"
      rewrite_invalidates_stable_plans;
    test "stable plans: mapped rewrite rejects and reaps on replay"
      mapped_rewrite_rejects_and_reaps;
    test "stable plans: corrupt file reaped on its failed load" corrupt_plan_is_reaped;
    test "stable sync: crash mid-persist recovers, errors degrade"
      crash_during_persist_recovers;
    test "janitor: stale stable files reaped, valid ones kept"
      janitor_reaps_stale_stable_files;
  ]
