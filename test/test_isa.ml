open Harness
module Reg = Hemlock_isa.Reg
module Insn = Hemlock_isa.Insn
module Cpu = Hemlock_isa.Cpu
module As = Hemlock_vm.Address_space
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment

(* ----- registers ----- *)

let reg_names () =
  check_string "sp" "$sp" (Reg.name Reg.sp);
  check_string "zero" "$zero" (Reg.name 0);
  check_int "by name" Reg.sp (Reg.of_string "$sp");
  check_int "by alias" Reg.gp (Reg.of_string "gp");
  check_int "by number" 17 (Reg.of_string "$17");
  check_bool "unknown rejected" true
    (try
       ignore (Reg.of_string "$nope");
       false
     with Failure _ -> true)

(* ----- encode/decode ----- *)

let sample_insns =
  [
    Insn.Sll (1, 2, 5);
    Insn.Srl (3, 4, 31);
    Insn.Sra (5, 6, 0);
    Insn.Add (7, 8, 9);
    Insn.Sub (10, 11, 12);
    Insn.Mul (13, 14, 15);
    Insn.Div (16, 17, 18);
    Insn.Rem (19, 20, 21);
    Insn.And (22, 23, 24);
    Insn.Or (25, 26, 27);
    Insn.Xor (28, 29, 30);
    Insn.Slt (31, 1, 2);
    Insn.Sltu (3, 4, 5);
    Insn.Addi (6, 7, -32768);
    Insn.Slti (8, 9, 32767);
    Insn.Andi (10, 11, 0xFFFF);
    Insn.Ori (12, 13, 0);
    Insn.Xori (14, 15, 0xABCD);
    Insn.Lui (16, 0x1234);
    Insn.Lw (17, 18, -4);
    Insn.Lb (19, 20, 127);
    Insn.Sw (21, 22, 4);
    Insn.Sb (23, 24, -128);
    Insn.Beq (25, 26, -100);
    Insn.Bne (27, 28, 100);
    Insn.Blez (29, 3);
    Insn.Bgtz (30, -3);
    Insn.J 0x12345;
    Insn.Jal 0x3FFFFFF;
    Insn.Jr 31;
    Insn.Jalr (31, 2);
    Insn.Syscall;
    Insn.Break;
  ]

let encode_decode_all () =
  List.iter
    (fun insn ->
      let word = Insn.encode insn in
      check_bool "32-bit" true (word >= 0 && word <= 0xFFFF_FFFF);
      let insn' = Insn.decode word in
      if insn <> insn' then
        Alcotest.failf "roundtrip: %s became %s"
          (Format.asprintf "%a" Insn.pp insn)
          (Format.asprintf "%a" Insn.pp insn'))
    sample_insns

let encode_range_checks () =
  check_bool "imm16 overflow" true
    (try ignore (Insn.encode (Insn.Addi (1, 2, 0x8000))); false with Failure _ -> true);
  check_bool "negative unsigned imm" true
    (try ignore (Insn.encode (Insn.Ori (1, 2, -1))); false with Failure _ -> true);
  check_bool "jump field overflow" true
    (try ignore (Insn.encode (Insn.J 0x4000000)); false with Failure _ -> true);
  check_bool "bad register" true
    (try ignore (Insn.encode (Insn.Add (32, 0, 0))); false with Failure _ -> true)

let jump_range () =
  check_bool "same region" true (Insn.jump_in_range ~pc:0x0040_0000 ~target:0x0080_0000);
  check_bool "cross region" false (Insn.jump_in_range ~pc:0x0040_0000 ~target:0x1000_0000);
  check_bool "shared region crossing" false
    (Insn.jump_in_range ~pc:0x3F00_0000 ~target:0x4000_0000);
  (* MIPS quirk: the region is taken from pc+4, so a jump in a delay-free
     last slot of a region reaches the next region. *)
  check_bool "region from pc+4" true
    (Insn.jump_in_range ~pc:0x3FFF_FFFC ~target:0x4000_0000);
  check_bool "unaligned" false (Insn.jump_in_range ~pc:0x1000 ~target:0x2002);
  let target = 0x0123_4560 in
  check_int "field roundtrip" target
    (Insn.jump_target ~pc:0x0000_1000 (Insn.jump_field ~target))

let prop_decode_encode =
  (* decode(encode(i)) = i for randomly generated register instructions *)
  let gen =
    QCheck2.Gen.(
      let reg = int_range 0 31 in
      let imm = int_range (-0x8000) 0x7FFF in
      oneof
        [
          map3 (fun a b c -> Insn.Add (a, b, c)) reg reg reg;
          map3 (fun a b c -> Insn.Sub (a, b, c)) reg reg reg;
          map3 (fun a b c -> Insn.Addi (a, b, c)) reg reg imm;
          map3 (fun a b c -> Insn.Lw (a, b, c)) reg reg imm;
          map3 (fun a b c -> Insn.Sw (a, b, c)) reg reg imm;
          map3 (fun a b c -> Insn.Beq (a, b, c)) reg reg imm;
          map2 (fun a b -> Insn.Lui (a, b land 0xFFFF)) reg imm;
          map (fun a -> Insn.J (a land 0x3FF_FFFF)) (int_bound 0x3FF_FFFF);
        ])
  in
  prop "insn: decode inverts encode" gen (fun insn -> Insn.decode (Insn.encode insn) = insn)

(* ----- cpu ----- *)

let make_space insns =
  let sp = As.create () in
  let text = Segment.create ~name:"text" ~max_size:0x10000 () in
  List.iteri (fun i insn -> Segment.set_u32 text (4 * i) (Insn.encode insn)) insns;
  As.map sp ~base:0x1000 ~len:0x1000 ~seg:text ~prot:Prot.Read_write_exec
    ~share:As.Private ~label:"text" ();
  let stack = Segment.create ~name:"stack" ~max_size:0x10000 () in
  As.map sp ~base:0x8000 ~len:0x1000 ~seg:stack ~prot:Prot.Read_write ~share:As.Private
    ~label:"stack" ();
  sp

let no_syscall _ = Alcotest.fail "unexpected syscall"

let run_insns ?(steps = 100) insns =
  let sp = make_space insns in
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  ignore (Cpu.run ~fuel:steps cpu sp ~syscall:no_syscall);
  cpu

let cpu_arith () =
  let cpu =
    run_insns
      [
        Insn.Addi (Reg.t0, Reg.zero, 21);
        Insn.Addi (Reg.t1, Reg.zero, 2);
        Insn.Mul (Reg.t2, Reg.t0, Reg.t1);
        Insn.Sub (Reg.t3, Reg.t2, Reg.t0);
        Insn.Break;
      ]
  in
  check_int "mul" 42 (Cpu.reg cpu Reg.t2);
  check_int "sub" 21 (Cpu.reg cpu Reg.t3)

let cpu_signed_ops () =
  let cpu =
    run_insns
      [
        Insn.Addi (Reg.t0, Reg.zero, -7);
        Insn.Addi (Reg.t1, Reg.zero, 2);
        Insn.Div (Reg.t2, Reg.t0, Reg.t1);
        Insn.Rem (Reg.t3, Reg.t0, Reg.t1);
        Insn.Slt (Reg.a0, Reg.t0, Reg.t1);
        Insn.Sltu (Reg.a1, Reg.t0, Reg.t1);
        Insn.Sra (Reg.a2, Reg.t0, 1);
        Insn.Break;
      ]
  in
  check_int "div trunc" (Hemlock_util.Codec.mask32 (-3)) (Cpu.reg cpu Reg.t2);
  check_int "rem sign" (Hemlock_util.Codec.mask32 (-1)) (Cpu.reg cpu Reg.t3);
  check_int "slt signed" 1 (Cpu.reg cpu Reg.a0);
  check_int "sltu unsigned" 0 (Cpu.reg cpu Reg.a1);
  check_int "sra" (Hemlock_util.Codec.mask32 (-4)) (Cpu.reg cpu Reg.a2)

let cpu_zero_register () =
  let cpu = run_insns [ Insn.Addi (Reg.zero, Reg.zero, 99); Insn.Break ] in
  check_int "r0 stays zero" 0 (Cpu.reg cpu Reg.zero)

let cpu_memory () =
  let cpu =
    run_insns
      [
        Insn.Addi (Reg.t0, Reg.zero, 0x1234);
        Insn.Sw (Reg.t0, Reg.sp, -4);
        Insn.Lw (Reg.t1, Reg.sp, -4);
        Insn.Sb (Reg.t0, Reg.sp, -8);
        Insn.Lb (Reg.t2, Reg.sp, -8);
        Insn.Break;
      ]
  in
  check_int "word roundtrip" 0x1234 (Cpu.reg cpu Reg.t1);
  check_int "byte truncated" 0x34 (Cpu.reg cpu Reg.t2)

let cpu_branch_loop () =
  (* sum 1..5 with a bne loop *)
  let cpu =
    run_insns
      [
        Insn.Addi (Reg.t0, Reg.zero, 5);
        Insn.Addi (Reg.t1, Reg.zero, 0);
        (* loop: *)
        Insn.Add (Reg.t1, Reg.t1, Reg.t0);
        Insn.Addi (Reg.t0, Reg.t0, -1);
        Insn.Bne (Reg.t0, Reg.zero, -3);
        Insn.Break;
      ]
  in
  check_int "sum" 15 (Cpu.reg cpu Reg.t1)

let cpu_jal_jr () =
  (* jal to a function that doubles a0, then jr back *)
  let insns =
    [
      Insn.Addi (Reg.a0, Reg.zero, 8);
      Insn.Jal (Insn.jump_field ~target:0x1010);
      Insn.Break;
      (* filler *)
      Insn.nop;
      (* 0x1010: *)
      Insn.Add (Reg.a0, Reg.a0, Reg.a0);
      Insn.Jr Reg.ra;
    ]
  in
  let cpu = run_insns insns in
  check_int "doubled" 16 (Cpu.reg cpu Reg.a0)

let cpu_div_zero_traps () =
  let sp = make_space [ Insn.Div (1, 2, 0); Insn.Break ] in
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  match Cpu.run ~fuel:10 cpu sp ~syscall:no_syscall with
  | exception Cpu.Cpu_error { pc = 0x1000; msg } ->
    check_string "message" "division by zero" msg
  | _ -> Alcotest.fail "expected trap"

let cpu_fault_leaves_pc () =
  let sp = make_space [ Insn.Lw (1, Reg.zero, 0); Insn.Break ] in
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  (match Cpu.run ~fuel:10 cpu sp ~syscall:no_syscall with
  | exception As.Fault { addr = 0; _ } -> ()
  | _ -> Alcotest.fail "expected fault");
  (* pc still points at the faulting instruction: it can restart *)
  check_int "pc unmoved" 0x1000 cpu.Cpu.pc

let cpu_halted_code () =
  let sp = make_space [ Insn.Addi (Reg.a0, Reg.zero, 7); Insn.Break ] in
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  match Cpu.run ~fuel:10 cpu sp ~syscall:no_syscall with
  | Cpu.Halted 7 -> ()
  | _ -> Alcotest.fail "expected Halted 7"

let cpu_syscall_callback () =
  let sp = make_space [ Insn.Addi (Reg.v0, Reg.zero, 9); Insn.Syscall; Insn.Break ] in
  let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
  let seen = ref 0 in
  let syscall c =
    seen := Cpu.reg c Reg.v0;
    Cpu.set_reg c Reg.v1 123
  in
  ignore (Cpu.run ~fuel:10 cpu sp ~syscall);
  check_int "syscall number seen" 9 !seen;
  check_int "result visible" 123 (Cpu.reg cpu Reg.v1);
  (* pc advanced past the trap before the callback ran *)
  check_int "pc after break" 0x1008 cpu.Cpu.pc

(* ----- instruction fetch ----- *)

(* Run [f] with the software TLB on or off; the fetch path must behave
   the same either way. *)
let with_tlb enabled f =
  let old = !As.caching_default in
  As.caching_default := enabled;
  Fun.protect ~finally:(fun () -> As.caching_default := old) f

(* Self-modifying code: execute an instruction, overwrite it with a
   store, loop back, and execute the new one.  The next fetch must see
   the stored word. *)
let self_modifying_code () =
  let patched = Insn.encode (Insn.Addi (Reg.t1, Reg.zero, 22)) in
  let program =
    [
      Insn.Addi (Reg.t0, Reg.zero, 0x1000);
      Insn.Lui (Reg.t2, patched lsr 16);
      Insn.Ori (Reg.t2, Reg.t2, patched land 0xFFFF);
      Insn.Addi (Reg.t3, Reg.zero, 0);
      (* 0x1010, the slot to patch: *)
      Insn.Addi (Reg.t1, Reg.zero, 11);
      Insn.Bne (Reg.t3, Reg.zero, 3);
      Insn.Sw (Reg.t2, Reg.t0, 0x10);
      Insn.Addi (Reg.t3, Reg.zero, 1);
      Insn.Beq (Reg.zero, Reg.zero, -5);
      Insn.Break;
    ]
  in
  List.iter
    (fun enabled ->
      with_tlb enabled (fun () ->
          let cpu = run_insns ~steps:50 program in
          check_int
            (Printf.sprintf "patched insn executed (TLB %b)" enabled)
            22 (Cpu.reg cpu Reg.t1)))
    [ true; false ]

(* Dropping exec permission must fault the very next fetch of code that
   has already run (the lazy linker's no-access trick). *)
let fetch_respects_protect () =
  List.iter
    (fun enabled ->
      with_tlb enabled (fun () ->
          let sp = make_space [ Insn.Beq (Reg.zero, Reg.zero, -1) ] in
          let cpu = Cpu.create ~entry:0x1000 ~sp:0x8800 in
          (match Cpu.run ~fuel:10 cpu sp ~syscall:no_syscall with
          | Cpu.Running -> ()
          | Cpu.Halted _ -> Alcotest.fail "loop should not halt");
          As.protect sp 0x1000 Prot.Read_write;
          match Cpu.step cpu sp ~syscall:no_syscall with
          | exception As.Fault { access = Prot.Exec; reason = As.Protection; _ } -> ()
          | _ -> Alcotest.fail "fetch after dropping exec must fault"))
    [ true; false ]

(* ----- assembler ----- *)

module Asm = Hemlock_isa.Asm
module Objfile = Hemlock_obj.Objfile

let asm_sections_and_symbols () =
  let obj =
    Asm.assemble ~name:"t.o"
      {|
        .text
        .globl f
f:      add $v0, $a0, $a1
        jr $ra
        .data
        .globl tbl
tbl:    .word 1, 2, 3
local:  .byte 7
        .bss
        .globl buf
buf:    .space 64
|}
  in
  check_int "text bytes" 8 (Bytes.length obj.Objfile.text);
  check_int "data bytes" 13 (Bytes.length obj.Objfile.data);
  check_int "bss" 64 obj.Objfile.bss_size;
  check_bool "f exported" true
    (match Objfile.find_symbol obj "f" with
    | Some { Objfile.sym_binding = Objfile.Global; sym_section = Objfile.Text; sym_offset = 0; _ } -> true
    | _ -> false);
  check_bool "local not exported" true
    (match Objfile.find_symbol obj "local" with
    | Some { Objfile.sym_binding = Objfile.Local; _ } -> true
    | _ -> false);
  check_int "exports" 3 (List.length (Objfile.exports obj))

let asm_branches_backpatch () =
  let obj =
    Asm.assemble ~name:"t.o"
      {|
        .text
start:  addi $t0, $zero, 3
loop:   addi $t0, $t0, -1
        bne  $t0, $zero, loop
        beq  $zero, $zero, done
        nop
done:   break
|}
  in
  (* bne at word 2 targets word 1: offset -2 *)
  let word = Hemlock_util.Codec.get_u32 obj.Objfile.text 8 in
  (match Insn.decode word with
  | Insn.Bne (_, _, -2) -> ()
  | i -> Alcotest.failf "bad bne offset: %s" (Format.asprintf "%a" Insn.pp i));
  let word = Hemlock_util.Codec.get_u32 obj.Objfile.text 12 in
  match Insn.decode word with
  | Insn.Beq (0, 0, 1) -> ()
  | i -> Alcotest.failf "bad beq offset: %s" (Format.asprintf "%a" Insn.pp i)

let asm_relocs () =
  let obj =
    Asm.assemble ~name:"t.o"
      {|
        .text
        la  $t0, counter
        jal external_fn
        lw  $t1, shared_scalar($gp)
        .data
ptr:    .word counter+4
|}
  in
  let kinds = List.map (fun r -> (r.Objfile.rel_kind, r.Objfile.rel_symbol)) obj.Objfile.relocs in
  check_bool "hi16" true (List.mem (Objfile.Hi16, "counter") kinds);
  check_bool "lo16" true (List.mem (Objfile.Lo16, "counter") kinds);
  check_bool "jump26" true (List.mem (Objfile.Jump26, "external_fn") kinds);
  check_bool "gprel" true (List.mem (Objfile.Gprel16, "shared_scalar") kinds);
  check_bool "gp flagged" true obj.Objfile.uses_gp;
  let abs = List.find (fun r -> r.Objfile.rel_kind = Objfile.Abs32) obj.Objfile.relocs in
  check_int "addend" 4 abs.Objfile.rel_addend;
  Alcotest.(check (list string)) "undefined externals"
    [ "counter"; "external_fn"; "shared_scalar" ] (Objfile.undefined obj)

let asm_pseudo_ops () =
  let obj =
    Asm.assemble ~name:"t.o"
      {|
        li $t0, 5
        li $t1, 0x12345678
        move $t2, $t0
        b next
next:   nop
|}
  in
  (match Insn.decode (Hemlock_util.Codec.get_u32 obj.Objfile.text 0) with
  | Insn.Addi (_, 0, 5) -> ()
  | _ -> Alcotest.fail "small li = addi");
  match Insn.decode (Hemlock_util.Codec.get_u32 obj.Objfile.text 4) with
  | Insn.Lui (_, 0x1234) -> ()
  | _ -> Alcotest.fail "large li = lui/ori"

let asm_strings () =
  let obj = Asm.assemble ~name:"t.o" "        .data\nmsg:    .asciiz \"a\\nb\\0c\"\n" in
  check_string "escapes" "a\nb\000c\000" (Bytes.to_string obj.Objfile.data)

let asm_errors () =
  let expect_error src =
    match Asm.assemble ~name:"t.o" src with
    | _ -> Alcotest.fail "expected assembler error"
    | exception Asm.Error _ -> ()
  in
  expect_error "        bogus $t0, $t1";
  expect_error "        addi $t0, $t1";
  expect_error "        .word";
  expect_error "        beq $t0, $t1, missing_label";
  expect_error "l:      nop\nl:      nop";
  expect_error "        lw $t0, data_sym($t1)" (* symbolic base only with $gp *)

let asm_instruction_in_data_rejected () =
  match Asm.assemble ~name:"t.o" "        .data\n        add $t0, $t1, $t2\n" with
  | _ -> Alcotest.fail "expected error"
  | exception Asm.Error { msg; _ } ->
    check_string "message" "instruction outside .text" msg

module Disasm = Hemlock_isa.Disasm

let disasm_listing () =
  let words = [ Insn.Addi (Reg.t0, Reg.zero, 5); Insn.Jal (Insn.jump_field ~target:0x1000) ] in
  let bytes = Bytes.create 8 in
  List.iteri (fun i insn -> Hemlock_util.Codec.set_u32 bytes (4 * i) (Insn.encode insn)) words;
  let listing = Disasm.text ~base:0x1000 bytes in
  check_bool "addi rendered" true (contains listing "addi $t0, $zero, 5");
  check_bool "addresses" true (contains listing "00001000:");
  check_bool "jump target list" true (Disasm.jump_targets ~base:0x1000 bytes = [ 0x1000 ]);
  (* garbage decodes as data *)
  let junk = Bytes.create 4 in
  Hemlock_util.Codec.set_u32 junk 0 0xFFFFFFFF;
  check_bool "garbage marked" true (contains (Disasm.text ~base:0 junk) "<data?>")

let suite =
  [
    test "reg: names and parsing" reg_names;
    test "insn: encode/decode all shapes" encode_decode_all;
    test "insn: encode range checks" encode_range_checks;
    test "insn: 28-bit jump range" jump_range;
    prop_decode_encode;
    test "cpu: arithmetic" cpu_arith;
    test "cpu: signed ops" cpu_signed_ops;
    test "cpu: register 0 immutable" cpu_zero_register;
    test "cpu: loads and stores" cpu_memory;
    test "cpu: branch loop" cpu_branch_loop;
    test "cpu: jal/jr" cpu_jal_jr;
    test "cpu: division by zero traps" cpu_div_zero_traps;
    test "cpu: fault leaves pc for restart" cpu_fault_leaves_pc;
    test "cpu: break halts with code" cpu_halted_code;
    test "cpu: syscall callback" cpu_syscall_callback;
    test "cpu: self-modifying code re-decodes" self_modifying_code;
    test "cpu: fetch respects protect" fetch_respects_protect;
    test "asm: sections and symbols" asm_sections_and_symbols;
    test "asm: branch backpatching" asm_branches_backpatch;
    test "asm: relocation records" asm_relocs;
    test "asm: pseudo instructions" asm_pseudo_ops;
    test "asm: string escapes" asm_strings;
    test "asm: error reporting" asm_errors;
    test "asm: no instructions outside .text" asm_instruction_in_data_rejected;
    test "disasm: listing and jump targets" disasm_listing;
  ]
