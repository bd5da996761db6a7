open Harness
module Layout = Hemlock_vm.Layout
module Segment = Hemlock_vm.Segment
module Objfile = Hemlock_obj.Objfile
module Aout = Hemlock_linker.Aout
module Modinst = Hemlock_linker.Modinst
module Reloc_engine = Hemlock_linker.Reloc_engine
module Insn = Hemlock_isa.Insn
module Reg = Hemlock_isa.Reg

(* ----- sharing classes (Table 1) ----- *)

let sharing_table () =
  let open Sharing in
  check_bool "static private" true
    (link_time Static_private = Static_link_time
    && instance_per_process Static_private
    && portion Static_private = Private);
  check_bool "dynamic private" true
    (link_time Dynamic_private = Run_time
    && instance_per_process Dynamic_private
    && portion Dynamic_private = Private);
  check_bool "static public" true
    (link_time Static_public = Static_link_time
    && (not (instance_per_process Static_public))
    && portion Static_public = Public);
  check_bool "dynamic public" true
    (link_time Dynamic_public = Run_time
    && (not (instance_per_process Dynamic_public))
    && portion Dynamic_public = Public);
  check_int "four classes" 4 (List.length all);
  List.iter
    (fun cls -> check_bool "parse roundtrip" true (of_string (to_string cls) = Some cls))
    all;
  check_bool "short names" true (of_string "dp" = Some Dynamic_private);
  check_bool "unknown" true (of_string "wild" = None)

(* ----- search paths (section 3 rules) ----- *)

let search_static_order () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/home/u";
  let ctx = ctx_in k "/home/u" ~env:[ ("LD_LIBRARY_PATH", "/env1:/env2") ] () in
  Alcotest.(check (list string)) "static order"
    [ "/home/u"; "/cli1"; "/cli2"; "/env1"; "/env2"; "/usr/lib"; "/shared/lib" ]
    (Search.static_dirs ctx ~cli_dirs:[ "/cli1"; "/cli2" ])

let search_runtime_order () =
  let k, _ = boot () in
  let ctx = ctx_in k "/" ~env:[ ("LD_LIBRARY_PATH", "/new") ] () in
  Alcotest.(check (list string)) "runtime order: env first, then recorded"
    [ "/new"; "/home/u"; "/usr/lib" ]
    (Search.runtime_dirs ctx ~recorded:[ "/home/u"; "/usr/lib" ])

let search_ld_library_path () =
  let llp v = Search.ld_library_path [ ("HOME", "/home/u"); ("LD_LIBRARY_PATH", v) ] in
  Alcotest.(check (list string)) "empty components dropped, order kept" [ "a"; "b" ]
    (llp "a::b:");
  Alcotest.(check (list string)) "order kept" [ "/z"; "/a"; "/m" ] (llp "/z:/a:/m");
  Alcotest.(check (list string)) "only separators" [] (llp ":::");
  Alcotest.(check (list string)) "empty" [] (llp "");
  Alcotest.(check (list string)) "unset" [] (Search.ld_library_path [ ("HOME", "/home/u") ])

let locate_first_wins () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/a";
  Fs.mkdir fs "/b";
  Fs.write_file fs "/a/m.o" (Bytes.of_string "A");
  Fs.write_file fs "/b/m.o" (Bytes.of_string "B");
  let ctx = ctx_in k "/" () in
  check_bool "first dir wins" true
    (Search.locate ctx ~dirs:[ "/b"; "/a" ] "m.o" = Some "/b/m.o");
  check_bool "missing" true (Search.locate ctx ~dirs:[ "/a" ] "nope.o" = None);
  check_bool "path bypasses dirs" true
    (Search.locate ctx ~dirs:[ "/b" ] "/a/m.o" = Some "/a/m.o");
  (* symlinks: located lexically, not chased *)
  Fs.mkdir fs "/tmpdir";
  Fs.symlink fs ~target:"/a/m.o" "/tmpdir/m.o";
  check_bool "symlink location kept" true
    (Search.locate ctx ~dirs:[ "/tmpdir"; "/a" ] "m.o" = Some "/tmpdir/m.o")

(* ----- reloc engine ----- *)

let bytes_sink b base =
  {
    Reloc_engine.get32 = (fun addr -> Hemlock_util.Codec.get_u32 b (addr - base));
    set32 = (fun addr v -> Hemlock_util.Codec.set_u32 b (addr - base) v);
  }

let reloc_abs_hi_lo () =
  let b = Bytes.make 16 '\000' in
  let sink = bytes_sink b 0x1000 in
  Reloc_engine.apply sink ~at:0x1000 ~kind:Objfile.Abs32 ~value:0x30001234 ~gp:None
    ~veneer:None;
  check_int "abs32" 0x30001234 (sink.Reloc_engine.get32 0x1000);
  sink.Reloc_engine.set32 0x1004 (Insn.encode (Insn.Lui (Reg.t0, 0)));
  Reloc_engine.apply sink ~at:0x1004 ~kind:Objfile.Hi16 ~value:0x30001234 ~gp:None
    ~veneer:None;
  (match Insn.decode (sink.Reloc_engine.get32 0x1004) with
  | Insn.Lui (_, 0x3000) -> ()
  | _ -> Alcotest.fail "hi16");
  sink.Reloc_engine.set32 0x1008 (Insn.encode (Insn.Ori (Reg.t0, Reg.t0, 0)));
  Reloc_engine.apply sink ~at:0x1008 ~kind:Objfile.Lo16 ~value:0x30001234 ~gp:None
    ~veneer:None;
  match Insn.decode (sink.Reloc_engine.get32 0x1008) with
  | Insn.Ori (_, _, 0x1234) -> ()
  | _ -> Alcotest.fail "lo16"

let reloc_gprel () =
  let b = Bytes.make 8 '\000' in
  let sink = bytes_sink b 0x1000 in
  sink.Reloc_engine.set32 0x1000 (Insn.encode (Insn.Lw (Reg.t0, Reg.gp, 0)));
  Reloc_engine.apply sink ~at:0x1000 ~kind:Objfile.Gprel16 ~value:0x2100 ~gp:(Some 0x2000)
    ~veneer:None;
  (match Insn.decode (sink.Reloc_engine.get32 0x1000) with
  | Insn.Lw (_, _, 0x100) -> ()
  | _ -> Alcotest.fail "gprel patch");
  (* out of 16-bit range: the sparse-address-space failure mode *)
  (match
     Reloc_engine.apply sink ~at:0x1000 ~kind:Objfile.Gprel16 ~value:0x3000_0000
       ~gp:(Some 0x2000) ~veneer:None
   with
  | _ -> Alcotest.fail "expected range error"
  | exception Reloc_engine.Link_error msg -> check_bool "mentions gp" true (contains msg "gp"));
  match
    Reloc_engine.apply sink ~at:0x1000 ~kind:Objfile.Gprel16 ~value:0x2100 ~gp:None
      ~veneer:None
  with
  | _ -> Alcotest.fail "expected no-gp error"
  | exception Reloc_engine.Link_error _ -> ()

let reloc_jump_veneer () =
  let b = Bytes.make 128 '\000' in
  let base = 0x0100_0000 in
  let sink = bytes_sink b base in
  let next = ref 0 in
  let pool =
    {
      Reloc_engine.vp_base = base + 32;
      vp_cap = 2;
      vp_get_next = (fun () -> !next);
      vp_set_next = (fun n -> next := n);
    }
  in
  Reloc_engine.reset_veneer_count ();
  sink.Reloc_engine.set32 base (Insn.encode (Insn.Jal 0));
  (* In-range target: patched directly, no veneer. *)
  Reloc_engine.apply sink ~at:base ~kind:Objfile.Jump26 ~value:0x0200_0000 ~gp:None
    ~veneer:(Some pool);
  check_int "no veneer needed" 0 !next;
  (* Cross-region target: goes through a veneer. *)
  sink.Reloc_engine.set32 (base + 4) (Insn.encode (Insn.Jal 0));
  Reloc_engine.apply sink ~at:(base + 4) ~kind:Objfile.Jump26 ~value:0x3200_0000 ~gp:None
    ~veneer:(Some pool);
  check_int "one veneer" 1 !next;
  check_int "counted" 1 (Reloc_engine.veneers_created ());
  (match Insn.decode (sink.Reloc_engine.get32 (base + 4)) with
  | Insn.Jal field -> check_int "jump to veneer" (base + 32) (Insn.jump_target ~pc:(base + 4) field)
  | _ -> Alcotest.fail "not a jal");
  (* The veneer loads the target and jumps indirect. *)
  (match
     ( Insn.decode (sink.Reloc_engine.get32 (base + 32)),
       Insn.decode (sink.Reloc_engine.get32 (base + 36)),
       Insn.decode (sink.Reloc_engine.get32 (base + 40)) )
   with
  | Insn.Lui (1, 0x3200), Insn.Ori (1, 1, 0), Insn.Jr 1 -> ()
  | _ -> Alcotest.fail "veneer body");
  (* Same target reuses the veneer slot. *)
  sink.Reloc_engine.set32 (base + 8) (Insn.encode (Insn.J 0));
  Reloc_engine.apply sink ~at:(base + 8) ~kind:Objfile.Jump26 ~value:0x3200_0000 ~gp:None
    ~veneer:(Some pool);
  check_int "reused" 1 !next;
  (* A second distinct target fills the pool; a third fails. *)
  Reloc_engine.apply sink ~at:(base + 8) ~kind:Objfile.Jump26 ~value:0x3300_0000 ~gp:None
    ~veneer:(Some pool);
  match
    Reloc_engine.apply sink ~at:(base + 8) ~kind:Objfile.Jump26 ~value:0x3400_0000 ~gp:None
      ~veneer:(Some pool)
  with
  | _ -> Alcotest.fail "expected pool exhaustion"
  | exception Reloc_engine.Link_error msg -> check_bool "pool" true (contains msg "pool")

(* ----- lds ----- *)

let counter_template = {|
int counter;
int bump() { counter = counter + 1; return counter; }
|}

let lds_basic_link () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o" "int main() { return 0; }";
  let warnings = link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "a.out" in
  check_bool "no warnings" true (warnings = []);
  let aout = Aout.parse (Fs.read_file (Kernel.fs k) "/home/t/a.out") in
  check_bool "has _start" true (Aout.find_symbol aout "_start" <> None);
  check_bool "has main" true (Aout.find_symbol aout "main" <> None);
  check_bool "entry at _start" true (Some aout.Aout.entry_off = Aout.find_symbol aout "_start");
  check_bool "records search dirs" true (List.mem "/home/t" aout.Aout.static_dirs)

let lds_missing_static_aborts () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  match link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "a.out" with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Lds.Link_error msg -> check_bool "names module" true (contains msg "main.o")

let lds_missing_dynamic_warns () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/main.o" "int main() { return 0; }";
  let warnings =
    link k ~dir:"/home/t"
      ~specs:[ ("main.o", Sharing.Static_private); ("ghost.o", Sharing.Dynamic_public) ]
      "a.out"
  in
  check_bool "warned" true
    (List.exists (fun w -> contains w "ghost.o" && contains w "does not exist yet") warnings);
  let aout = Aout.parse (Fs.read_file (Kernel.fs k) "/home/t/a.out") in
  check_bool "descriptor recorded anyway" true
    (List.exists (fun d -> d.Aout.dd_name = "ghost.o") aout.Aout.dynamics)

let lds_duplicate_symbols () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/a.o" "int f() { return 1; }";
  install_c k "/home/t/b.o" "int f() { return 2; }";
  install_c k "/home/t/main.o" "extern int f(); int main() { return f(); }";
  let specs =
    [
      ("main.o", Sharing.Static_private);
      ("a.o", Sharing.Static_private);
      ("b.o", Sharing.Static_private);
    ]
  in
  (match link k ~dir:"/home/t" ~specs "a.out" with
  | _ -> Alcotest.fail "expected duplicate error"
  | exception Lds.Link_error msg -> check_bool "dup" true (contains msg "multiply defined"));
  (* `First` policy: picks the first and warns, as the paper describes. *)
  let warnings = link k ~dir:"/home/t" ~duplicate_policy:`First ~specs "a.out" in
  check_bool "warned instead" true (List.exists (fun w -> contains w "multiply defined") warnings);
  let proc, _ = run_program k "/home/t/a.out" in
  check_int "first wins" 1 (exit_code proc)

let lds_static_public_created () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  install_c k "/shared/lib/counter.o" counter_template;
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "extern int bump(); int main() { return bump(); }";
  let warnings =
    link k ~dir:"/home/t"
      ~specs:
        [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Static_public) ]
      "a.out"
  in
  check_bool "no warnings" true (warnings = []);
  (* The module file exists, named by dropping ".o", at a global address. *)
  check_bool "created" true (Fs.exists fs "/shared/lib/counter");
  let seg = Fs.segment_of fs "/shared/lib/counter" in
  check_bool "is module file" true (Modinst.Header.is_module_file seg);
  check_string "records template" "/shared/lib/counter.o" (Modinst.Header.template seg);
  check_bool "fully linked (internal refs only)" true (Modinst.Header.fully_linked seg);
  let aout = Aout.parse (Fs.read_file fs "/home/t/a.out") in
  (match aout.Aout.static_pubs with
  | [ sp ] ->
    check_string "module path" "/shared/lib/counter" sp.Aout.sp_module;
    check_int "address = slot address" (Fs.addr_of_path fs "/shared/lib/counter") sp.Aout.sp_base
  | _ -> Alcotest.fail "one static pub");
  (* References to it were resolved to absolute addresses statically:
     no pending reloc mentions bump. *)
  check_bool "bump resolved statically" true
    (not (List.exists (fun r -> r.Objfile.rel_symbol = "bump") aout.Aout.pending));
  (* Relinking reuses the existing module. *)
  let before = Fs.addr_of_path fs "/shared/lib/counter" in
  ignore
    (link k ~dir:"/home/t"
       ~specs:
         [ ("main.o", Sharing.Static_private); ("/shared/lib/counter.o", Sharing.Static_public) ]
       "b.out");
  check_int "address stable across relinks" before (Fs.addr_of_path fs "/shared/lib/counter")

let lds_public_template_must_be_shared () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/counter.o" counter_template;
  install_c k "/home/t/main.o" "int main() { return 0; }";
  match
    link k ~dir:"/home/t"
      ~specs:[ ("main.o", Sharing.Static_private); ("counter.o", Sharing.Static_public) ]
      "a.out"
  with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Modinst.Link_error msg ->
    check_bool "explains partition rule" true (contains msg "shared partition")

let lds_rejects_gp_public () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  write_obj k "/shared/lib/gpmod.o"
    (Cc.to_object ~use_gp:true ~name:"gpmod.o" counter_template);
  Fs.mkdir fs "/home/t";
  install_c k "/home/t/main.o" "int main() { return 0; }";
  match
    link k ~dir:"/home/t"
      ~specs:[ ("main.o", Sharing.Static_private); ("/shared/lib/gpmod.o", Sharing.Static_public) ]
      "a.out"
  with
  | _ -> Alcotest.fail "expected gp rejection"
  | exception Modinst.Link_error msg ->
    check_bool "explains gp rule" true (contains msg "gp disabled")

let lds_gp_private_works () =
  (* A private static image may use gp: crt0 sets $gp to the image's
     data base and lds resolves GPREL16 against it. *)
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  write_obj k "/home/t/main.o"
    (Cc.to_object ~use_gp:true ~name:"main.o"
       "int g; int main() { g = 31; print_int(g + 11); return 0; }");
  ignore (link k ~dir:"/home/t" ~specs:[ ("main.o", Sharing.Static_private) ] "a.out");
  let _, out = run_program k "/home/t/a.out" in
  check_string "gp-relative data works privately" "42" out

let lds_retains_unresolved () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/lib.o" "int helper() { return 5; }";
  install_c k "/home/t/main.o" "extern int helper(); int main() { return helper(); }";
  let _ =
    link k ~dir:"/home/t"
      ~specs:[ ("main.o", Sharing.Static_private); ("lib.o", Sharing.Dynamic_private) ]
      "a.out"
  in
  let aout = Aout.parse (Fs.read_file (Kernel.fs k) "/home/t/a.out") in
  check_bool "helper retained for ldl" true
    (List.exists (fun r -> r.Objfile.rel_symbol = "helper") aout.Aout.pending)

let lds_embed_metadata () =
  let k, _ = boot () in
  Fs.mkdir (Kernel.fs k) "/home/t";
  install_c k "/home/t/m.o" "int f() { return 0; }";
  let ctx = ctx_in k "/home/t" () in
  Lds.embed_metadata ctx ~template:"m.o" ~modules:[ "dep.o" ] ~search_path:[ "/libs" ];
  let obj = Objfile.parse (Fs.read_file (Kernel.fs k) "/home/t/m.o") in
  Alcotest.(check (list string)) "modules" [ "dep.o" ] obj.Objfile.own_modules;
  Alcotest.(check (list string)) "search" [ "/libs" ] obj.Objfile.own_search_path;
  (* still a valid template: symbols survive *)
  check_bool "symbols intact" true (Objfile.find_symbol obj "f" <> None)

(* ----- module instances / public files ----- *)

let module_header_state () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  let obj =
    Cc.to_object ~name:"m.o" "extern int outside; int f() { return outside; }"
  in
  write_obj k "/shared/lib/m.o" obj;
  let ctx = ctx_in k "/" () in
  let base =
    Modinst.create_public_file ctx ~template_path:"/shared/lib/m.o" ~obj
      ~module_path:"/shared/lib/m"
  in
  check_int "base is the slot address" (Fs.addr_of_path fs "/shared/lib/m") base;
  let seg = Fs.segment_of fs "/shared/lib/m" in
  check_bool "not fully linked: external ref pending" false (Modinst.Header.fully_linked seg);
  check_int "reloc count recorded" (List.length obj.Objfile.relocs) (Modinst.Header.nrelocs seg);
  (* mark all applied -> fully linked *)
  List.iteri (fun i _ -> Modinst.Header.set_applied seg i) obj.Objfile.relocs;
  check_bool "now fully linked" true (Modinst.Header.fully_linked seg);
  check_bool "idempotent marking" true
    (Modinst.Header.set_applied seg 0;
     Modinst.Header.fully_linked seg)

let instance_symbol_addresses () =
  let k, _ = boot () in
  let fs = Kernel.fs k in
  Fs.mkdir fs "/shared/lib";
  let obj = Cc.to_object ~name:"m.o" "int x = 3; int f() { return x; }" in
  write_obj k "/shared/lib/m.o" obj;
  let ctx = ctx_in k "/" () in
  ignore
    (Modinst.create_public_file ctx ~template_path:"/shared/lib/m.o" ~obj
       ~module_path:"/shared/lib/m");
  let scope = { Modinst.sc_label = "t"; sc_modules = []; sc_search = []; sc_parent = None } in
  let inst = Modinst.public_instance ctx ~module_path:"/shared/lib/m" ~scope in
  let f_addr = Option.get (Modinst.find_export inst "f") in
  let x_addr = Option.get (Modinst.find_export inst "x") in
  check_bool "f in text after header page" true
    (f_addr = inst.Modinst.inst_base + Modinst.Header.size);
  check_bool "x after text" true (x_addr > f_addr);
  check_bool "contains" true (Modinst.contains inst x_addr);
  check_bool "not beyond" false (Modinst.contains inst (Modinst.limit inst));
  check_bool "no ghost exports" true (Modinst.find_export inst "ghost" = None)

let suite =
  [
    test "sharing: Table 1 semantics" sharing_table;
    test "search: static-link-time order" search_static_order;
    test "search: run-time order" search_runtime_order;
    test "search: LD_LIBRARY_PATH splitting" search_ld_library_path;
    test "search: locate picks first, keeps symlinks" locate_first_wins;
    test "reloc: ABS32/HI16/LO16" reloc_abs_hi_lo;
    test "reloc: GPREL16 range and absence" reloc_gprel;
    test "reloc: out-of-range jumps use veneers" reloc_jump_veneer;
    test "lds: basic image link" lds_basic_link;
    test "lds: missing static module aborts" lds_missing_static_aborts;
    test "lds: missing dynamic module warns" lds_missing_dynamic_warns;
    test "lds: duplicate global symbols" lds_duplicate_symbols;
    test "lds: static public module creation" lds_static_public_created;
    test "lds: public templates must live on /shared" lds_public_template_must_be_shared;
    test "lds: gp-using public modules rejected" lds_rejects_gp_public;
    test "lds: gp works for the private image" lds_gp_private_works;
    test "lds: unresolved relocations retained" lds_retains_unresolved;
    test "lds: -r metadata embedding" lds_embed_metadata;
    test "modinst: public header link state" module_header_state;
    test "modinst: instance symbol addresses" instance_symbol_addresses;
  ]
