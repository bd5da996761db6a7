module As = Hemlock_vm.Address_space
module Layout = Hemlock_vm.Layout
module Prot = Hemlock_vm.Prot
module Segment = Hemlock_vm.Segment
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Env = Hemlock_util.Env

(* --- Trace JIT: threaded OCaml closure chains ------------------------

   The interpreter pays fetch + decode + dispatch for every instruction
   (it keeps no decoded-instruction cache).  This module removes all three
   on hot paths: once a basic-block head has been entered [threshold]
   times, the straight-line run starting there — extended across
   unconditional branches, inlined calls and matched returns into a
   superblock — is compiled into a chain of OCaml closures, one per
   instruction, each doing its register/memory work directly and
   tail-calling the next.  Conditional branches become guards that side
   exit back to the interpreter when the unfollowed direction is taken;
   loads and stores carry per-site inline caches and fall back to the
   address space's checked accessors (exact fault semantics) on any
   miss.

   Coherence rides on two counters, the address-space epoch and the
   segment version:

   - every compiled instruction is recorded as a (segment, offset, word)
     dependency; entry validation compares [Segment.version] per
     dependency run and degrades to word verification when the version
     moved (self-modifying and code-adjacent data writes), re-keying or
     discarding the trace;
   - mapping geometry is pinned under [As.epoch]; when the epoch moved,
     entry validation re-resolves [As.exec_view] per dependency run and
     only re-stamps the trace when segment identity and delta are
     unchanged;
   - the epoch provably cannot change {e during} a trace run (only the
     kernel bumps it, and traces exit to the kernel for every syscall
     and fault), so inline data caches are validated purely by an epoch
     stamp taken once at entry — plus [Segment.page_gen] for load
     caches, which hold raw page bytes that must be dropped when a COW
     break or drop swaps the chunk out from under them;
   - a store executed {e inside} a trace re-checks the trace's own code
     dependencies and side exits (then invalidates) when it wrote over
     them, so self-modifying code can never run one stale instruction.

   Simulated costs are bit-identical to the interpreter, but the
   bookkeeping is batched instead of per-instruction: fuel is threaded
   through the chain (one decrement per instruction) and the
   instruction counter is settled at every exit as
   [entry fuel - remaining fuel] — the two are in lockstep because
   every step consumes exactly one fuel.  A trace only runs when the
   remaining quantum covers its full static length, so no step needs a
   fuel check; the quantum's tail is always interpreted, landing
   quantum expiry on the same instruction boundary as the interpreter.
   A faulting or trapping instruction bills its own tick on the way out
   (like [Cpu.step], which bills before executing), and syscall/halt
   exits replicate [Cpu.run_trap]'s accounting exactly. *)

let enabled = ref (not (Env.flag "HEMLOCK_NO_JIT"))
let log_enabled = ref (Env.flag "HEMLOCK_JIT_LOG")

let default_threshold = 50

let threshold =
  ref (Option.value ~default:default_threshold (Env.int ~min:1 "HEMLOCK_JIT_THRESHOLD"))

let max_insns = 512
let max_inline = 16
let min_insns = 3

exception Error of { e_pc : int; e_msg : string }

(* How a trace run ended.  [c_pc] (and for faults [c_fuel]) in the
   state's context carry the resume point; see [resume_pc]. *)
type exit = X_side of int | X_halt of int * int | X_syscall of int

type step = int -> exit

(* [c_fin] is the fuel the current run entered with: every exit settles
   the instruction counter as [c_fin - remaining]. *)
type ctx = {
  mutable c_pc : int;
  mutable c_fuel : int;
  mutable c_epoch : int;
  mutable c_fin : int;
}

(* One contiguous run of compiled code words: the unit of invalidation
   checking.  [d_ver] is re-stamped whenever word verification proves
   the bytes unchanged. *)
type dep = {
  d_vlo : int;  (* vaddr of the first word *)
  d_seg : Segment.t;
  d_delta : int;  (* segment offset = vaddr + delta *)
  d_words : int array;
  mutable d_ver : int;
}

type trace = {
  tr_entry : int;
  tr_len : int;
  tr_deps : dep array;
  mutable tr_epoch : int;
  tr_valid : bool ref;
  tr_first : step;
}

type entry = Counting of int | Compiled of trace

type state = {
  st_regs : int array;
  st_ctx : ctx;
  st_tbl : (int, entry) Hashtbl.t;
  mutable st_space : As.t option;
}

type outcome = Missed | Ran of exit

let make regs =
  {
    st_regs = regs;
    st_ctx = { c_pc = 0; c_fuel = 0; c_epoch = -1; c_fin = 0 };
    st_tbl = Hashtbl.create 64;
    st_space = None;
  }

let resume_pc st = st.st_ctx.c_pc
let resume_fuel st = st.st_ctx.c_fuel

(* --- superblock selection ------------------------------------------- *)

type kind =
  | K_plain
  | K_br_exit of int  (* conditional: side exit to target when taken *)
  | K_br_loop  (* conditional: taken edge loops to the trace entry *)
  | K_jump  (* unconditional, followed in-line: pure bill *)
  | K_jal  (* inlined call: set ra, continue at the target *)
  | K_jal_exit of int  (* call at the inline-depth cap: exec, then exit *)
  | K_jr_guard of int  (* matched return: guard regs[rs] = expected *)
  | K_jr_guess of int  (* monomorphic return/jump: guard on the target
                          the register held at compile time *)
  | K_jalr_guess of int  (* monomorphic indirect call: set rd, guard,
                            continue inline at the compile-time target *)
  | K_jalr_exit  (* indirect call at the inline-depth cap: exec, exit *)
  | K_syscall
  | K_halt

type sel = { s_pc : int; s_word : int; s_insn : Insn.t; s_kind : kind }

type tail = T_loop | T_exit of int | T_none

type dep_run = {
  dr_vlo : int;
  dr_seg : Segment.t;
  dr_delta : int;
  dr_hi : int;
  mutable dr_words_rev : int list;
  mutable dr_next : int;
}

(* [regs] is the live register file at the moment of compilation: the
   trace runs immediately after selection, so a register holding an
   indirect-jump target right now holds the target of the run about to
   happen.  Selection carries that knowledge forward with a small
   constant-propagation pass (mirroring the interpreter's arithmetic,
   peeking current memory for loads from known addresses), so that an
   indirect call through a linker jump slot — [lw t, slot(gp); jalr t]
   — is predicted from the slot's {e current} contents rather than a
   stale register.  Indirect calls and returns then compile as
   {e monomorphic guesses}: guard on the predicted target, continue
   inline through it, side exit to the true target on a mispredict —
   which is what lets traces span the linker's jump-slot calls and
   returns instead of breaking at every one.  A wrong prediction is
   never wrong execution, only a guaranteed side exit. *)
let select regs space entry =
  let sels = ref [] in
  let count = ref 0 in
  let seen = Hashtbl.create 64 in
  let runs = ref [] in
  let cur = ref None in
  let tail = ref T_none in
  let ras = ref [] in
  let depth = ref 0 in
  (* Abstract register file: [Some v] = the register will hold exactly
     [v] when execution reaches this point of the trace (assuming every
     guard before it holds). Seeded from the live registers. *)
  let abs = Array.init 32 (fun i -> Some (Array.unsafe_get regs i)) in
  abs.(0) <- Some 0;
  let aval r = if r = 0 then Some 0 else Array.unsafe_get abs r in
  let aset r v = if r <> 0 then Array.unsafe_set abs r v in
  let known r f = match aval r with Some v -> Some (f v) | None -> None in
  let known2 r1 r2 f =
    match (aval r1, aval r2) with
    | Some a, Some b -> Some (f a b)
    | _ -> None
  in
  let m f = Option.map Codec.mask32 f in
  let peek_u32 a =
    if a land 3 <> 0 then None
    else
      match As.data_view space a Prot.Read with
      | Some (seg, delta, hi) when a + 4 <= hi ->
        Some (Segment.get_u32 seg (a + delta))
      | _ -> None
  in
  (* Advance the abstract state over one instruction, mirroring the
     interpreter's value semantics exactly (set_reg masks to 32 bits;
     signed compares sign-extend). *)
  let abs_step insn pc =
    let sx = Codec.sext32 in
    match insn with
    | Insn.Sll (rd, rt, sh) -> aset rd (m (known rt (fun v -> v lsl sh)))
    | Insn.Srl (rd, rt, sh) -> aset rd (m (known rt (fun v -> v lsr sh)))
    | Insn.Sra (rd, rt, sh) -> aset rd (m (known rt (fun v -> sx v asr sh)))
    | Insn.Add (rd, rs, rt) -> aset rd (m (known2 rs rt ( + )))
    | Insn.Sub (rd, rs, rt) -> aset rd (m (known2 rs rt ( - )))
    | Insn.Mul (rd, rs, rt) ->
      aset rd (m (known2 rs rt (fun a b -> sx a * sx b)))
    | Insn.Div (rd, _, _) | Insn.Rem (rd, _, _) ->
      (* Folding a division would also have to fold its zero trap;
         not worth it for a guess. *)
      aset rd None
    | Insn.And (rd, rs, rt) -> aset rd (m (known2 rs rt ( land )))
    | Insn.Or (rd, rs, rt) -> aset rd (m (known2 rs rt ( lor )))
    | Insn.Xor (rd, rs, rt) -> aset rd (m (known2 rs rt ( lxor )))
    | Insn.Slt (rd, rs, rt) ->
      aset rd (known2 rs rt (fun a b -> if sx a < sx b then 1 else 0))
    | Insn.Sltu (rd, rs, rt) ->
      aset rd (known2 rs rt (fun a b -> if a < b then 1 else 0))
    | Insn.Addi (rt, rs, imm) -> aset rt (m (known rs (fun v -> v + imm)))
    | Insn.Slti (rt, rs, imm) ->
      aset rt (known rs (fun v -> if sx v < imm then 1 else 0))
    | Insn.Andi (rt, rs, imm) -> aset rt (m (known rs (fun v -> v land imm)))
    | Insn.Ori (rt, rs, imm) -> aset rt (m (known rs (fun v -> v lor imm)))
    | Insn.Xori (rt, rs, imm) -> aset rt (m (known rs (fun v -> v lxor imm)))
    | Insn.Lui (rt, imm) -> aset rt (Some (Codec.mask32 (imm lsl 16)))
    | Insn.Lw (rt, base, off) ->
      aset rt
        (match aval base with
        | Some v -> peek_u32 (Codec.mask32 (v + off))
        | None -> None)
    | Insn.Lb (rt, _, _) -> aset rt None
    | Insn.Sw _ | Insn.Sb _ | Insn.Beq _ | Insn.Bne _ | Insn.Blez _
    | Insn.Bgtz _ | Insn.J _ | Insn.Jr _ | Insn.Break ->
      ()
    | Insn.Jal _ -> aset Reg.ra (Some (Codec.mask32 (pc + 4)))
    | Insn.Jalr (rd, _) -> aset rd (Some (Codec.mask32 (pc + 4)))
    | Insn.Syscall ->
      (* The kernel may write any register before resuming. *)
      Array.fill abs 1 31 None
  in
  let dep_add pc word seg delta hi =
    match !cur with
    | Some r
      when r.dr_seg == seg && r.dr_delta = delta && pc = r.dr_next
           && pc + 4 <= r.dr_hi ->
      r.dr_words_rev <- word :: r.dr_words_rev;
      r.dr_next <- pc + 4
    | _ ->
      (match !cur with Some r -> runs := r :: !runs | None -> ());
      cur :=
        Some
          {
            dr_vlo = pc;
            dr_seg = seg;
            dr_delta = delta;
            dr_hi = hi;
            dr_words_rev = [ word ];
            dr_next = pc + 4;
          }
  in
  let fetch pc =
    match As.exec_view space pc with
    | seg, delta, hi -> (
      let word = Segment.get_u32 seg (pc + delta) in
      match Insn.decode word with
      | insn -> Some (seg, delta, hi, word, insn)
      | exception Failure _ -> None)
    | exception As.Fault _ -> None
  in
  let rec go pc =
    if !count >= max_insns then tail := T_exit pc
    else if pc = entry && !count > 0 then tail := T_loop
    else if Hashtbl.mem seen pc then tail := T_exit pc
    else
      match fetch pc with
      | None -> tail := T_exit pc
      | Some (seg, delta, hi, word, insn) -> (
        Hashtbl.add seen pc ();
        incr count;
        dep_add pc word seg delta hi;
        let push kind =
          sels := { s_pc = pc; s_word = word; s_insn = insn; s_kind = kind } :: !sels
        in
        match insn with
        | Insn.Break -> push K_halt
        | Insn.Syscall -> push K_syscall
        | Insn.J field ->
          push K_jump;
          go (Insn.jump_target ~pc field)
        | Insn.Jal field ->
          let target = Insn.jump_target ~pc field in
          if !depth >= max_inline then push (K_jal_exit target)
          else begin
            abs_step insn pc;
            ras := (pc + 4) :: !ras;
            incr depth;
            push K_jal;
            go target
          end
        | Insn.Jr rs -> (
          (* Only [jr ra] is a return; a [jr] through any other register
             is an indirect jump (the compiler's out-of-range call
             veneers are [lui at; ori at; jr at]) and must follow the
             jump target, not the pending return address. *)
          match !ras with
          | ret :: rest when rs = Reg.ra ->
            ras := rest;
            decr depth;
            push (K_jr_guard ret);
            go ret
          | _ ->
            let guess =
              match aval rs with
              | Some v -> v
              | None -> Array.unsafe_get regs rs
            in
            push (K_jr_guess guess);
            go guess)
        | Insn.Jalr (_, rs) ->
          if !depth >= max_inline then push K_jalr_exit
          else begin
            (* Read the prediction before the abstract rd write, like
               the runtime guard reads the target before writing rd. *)
            let guess =
              match aval rs with
              | Some v -> v
              | None -> Array.unsafe_get regs rs
            in
            abs_step insn pc;
            ras := (pc + 4) :: !ras;
            incr depth;
            push (K_jalr_guess guess);
            go guess
          end
        | Insn.Beq (rs, rt, off) when rs = rt ->
          (* Always taken: follow it like an unconditional jump. *)
          push K_jump;
          go (pc + 4 + (4 * off))
        | Insn.Beq (_, _, off)
        | Insn.Bne (_, _, off)
        | Insn.Blez (_, off)
        | Insn.Bgtz (_, off) ->
          let taken = pc + 4 + (4 * off) in
          if taken = entry then push K_br_loop else push (K_br_exit taken);
          go (pc + 4)
        | _ ->
          abs_step insn pc;
          push K_plain;
          go (pc + 4))
  in
  go entry;
  if !count < min_insns then None
  else begin
    (match !cur with Some r -> runs := r :: !runs | None -> ());
    let deps =
      List.rev_map
        (fun r ->
          {
            d_vlo = r.dr_vlo;
            d_seg = r.dr_seg;
            d_delta = r.dr_delta;
            d_words = Array.of_list (List.rev r.dr_words_rev);
            d_ver = Segment.version r.dr_seg;
          })
        !runs
      |> Array.of_list
    in
    Some (List.rev !sels, !tail, deps)
  end

(* --- validation ------------------------------------------------------ *)

(* Word verification, per dependency run: an untouched
   version proves the bytes; a moved version falls back to re-reading
   and comparing every word, re-stamping the version on an exact match
   so the next check is cheap again. *)
let dep_words_current d =
  let ver = Segment.version d.d_seg in
  ver = d.d_ver
  ||
  let n = Array.length d.d_words in
  let rec ok i =
    i >= n
    || Segment.get_u32 d.d_seg (d.d_vlo + (4 * i) + d.d_delta)
       = Array.unsafe_get d.d_words i
       && ok (i + 1)
  in
  if ok 0 then begin
    d.d_ver <- ver;
    true
  end
  else false

(* Epoch moved between runs: mappings may have changed under the trace.
   Re-resolve the geometry of every dependency run; the trace survives
   only if each still fetches from the same segment at the same delta
   (and the words check out), because the store guards compiled into it
   reference those segments by identity. *)
let revalidate_geometry tr space =
  let ok =
    try
      Array.for_all
        (fun d ->
          match As.exec_view space d.d_vlo with
          | seg, delta, hi ->
            seg == d.d_seg && delta = d.d_delta
            && d.d_vlo + (4 * Array.length d.d_words) <= hi
            && dep_words_current d)
        tr.tr_deps
    with As.Fault _ -> false
  in
  if ok then tr.tr_epoch <- As.epoch space;
  ok

let validate tr space =
  !(tr.tr_valid)
  &&
  if As.epoch space = tr.tr_epoch then Array.for_all dep_words_current tr.tr_deps
  else revalidate_geometry tr space

(* --- inline data caches ---------------------------------------------- *)

let pmask = Layout.page_size - 1
let pbase_mask = lnot pmask

(* Per-load-site cache: raw page bytes, valid while the address space
   epoch (stamped at trace entry) and the segment's page-table
   generation stand still.  In-place writes to the page are immediately
   visible through the cached bytes; anything that swaps the chunk (COW
   break, drop, replace) bumps [page_gen] and forces a refill. *)
type lic = {
  mutable l_page : int;  (* vaddr page base; -1 = invalid *)
  mutable l_hi : int;  (* exclusive access bound within page & mapping *)
  mutable l_bytes : Bytes.t;
  mutable l_gen : int;
  mutable l_seg : Segment.t;
  mutable l_epoch : int;
}

(* Per-store-site cache, two tiers.

   Raw tier ([s_gen] >= 0): the mapped page is exclusively owned
   ([Segment.owned_page_view]), so a hit writes the page bytes directly
   and bumps the segment version — exactly what [Segment.set_u32]'s
   owned-page arm would do.  [s_lim] folds every bound into one compare:
   the mapping limit, the page end, and the segment's logical size (the
   write must not grow [size], which the raw path cannot do).  Validity
   rides on the trace-entry epoch and the segment's [page_gen], which
   moves on COW breaks, on [copy] sharing the page out, and on resizes.

   Geometry tier: mapping geometry only; the store goes through
   [Segment.set_*], keeping the identical-write skip and size-growth
   semantics for shared pages.  Both tiers are filled only for mappings
   whose *effective* protection allows the write, so a COW mapping is
   never store-cached (its resolution bumps the epoch anyway). *)
type sic = {
  mutable s_page : int;
  mutable s_hi : int;
  mutable s_delta : int;
  mutable s_seg : Segment.t;
  mutable s_epoch : int;
  mutable s_bytes : Bytes.t;
  mutable s_gen : int;  (* raw tier stamp; -1 = geometry tier only *)
  mutable s_lim : int;  (* raw tier exclusive vaddr bound *)
  (* Whether the cached segment backs any of this trace's own code
     dependencies.  If not, a store through the cache provably cannot
     invalidate the trace and the post-store dep guard is skipped. *)
  mutable s_code : bool;
}

let fill_lic ic ctx space a =
  ic.l_page <- -1;
  match As.data_view space a Prot.Read with
  | Some (seg, delta, hi) when delta land pmask = 0 -> (
    match Segment.page_view seg (a + delta) with
    | Some (bytes, gen) ->
      ic.l_seg <- seg;
      ic.l_bytes <- bytes;
      ic.l_gen <- gen;
      ic.l_epoch <- ctx.c_epoch;
      ic.l_page <- a land pbase_mask;
      ic.l_hi <- min hi (ic.l_page + Layout.page_size)
    | None -> ())
  | _ -> ()

let fill_sic ic ctx space a =
  ic.s_page <- -1;
  ic.s_gen <- -1;
  match As.data_view space a Prot.Write with
  | Some (seg, delta, hi) when delta land pmask = 0 ->
    ic.s_seg <- seg;
    ic.s_delta <- delta;
    ic.s_epoch <- ctx.c_epoch;
    ic.s_page <- a land pbase_mask;
    ic.s_hi <- min hi (ic.s_page + Layout.page_size);
    (match Segment.owned_page_view seg (a + delta) with
    | Some (bytes, gen) ->
      ic.s_bytes <- bytes;
      ic.s_gen <- gen;
      (* [off + n <= size] iff [a + n <= size - delta]. *)
      ic.s_lim <- min ic.s_hi (Segment.size seg - delta)
    | None -> ())
  | _ -> ()

(* --- closure compilation --------------------------------------------- *)

let note_of = function
  | K_plain -> ""
  | K_br_exit t -> Printf.sprintf "guard: taken -> exit 0x%08x" t
  | K_br_loop -> "guard: taken -> loop to entry"
  | K_jump -> "followed in-line"
  | K_jal -> "inlined call"
  | K_jal_exit t -> Printf.sprintf "call exit -> 0x%08x (inline cap)" t
  | K_jr_guard r -> Printf.sprintf "guard: return = 0x%08x else exit" r
  | K_jr_guess r -> Printf.sprintf "guard: monomorphic target = 0x%08x else exit" r
  | K_jalr_guess r ->
    Printf.sprintf "guard: monomorphic call = 0x%08x else exit" r
  | K_jalr_exit -> "indirect call exit (inline cap)"
  | K_syscall -> "syscall exit"
  | K_halt -> "halt exit"

let compile st space entry_pc =
  match select st.st_regs space entry_pc with
  | None -> None
  | Some (sels, tail, deps) ->
    let regs = st.st_regs in
    let ctx = st.st_ctx in
    let valid = ref true in
    let head = ref (fun _ -> assert false) in
    let anchor_seg = deps.(0).d_seg in
    let ndeps = Array.length deps in
    (* Post-store code-invalidation guard: cheap version compares,
       specialised for the overwhelmingly common single-run trace. *)
    let deps_fast =
      if ndeps = 1 then begin
        let d = deps.(0) in
        fun () -> Segment.version d.d_seg = d.d_ver
      end
      else
        fun () ->
        let rec ok i =
          i >= ndeps
          ||
          let d = Array.unsafe_get deps i in
          Segment.version d.d_seg = d.d_ver && ok (i + 1)
        in
        ok 0
    in
    let deps_reverify () = Array.for_all dep_words_current deps in
    let seg_in_deps seg =
      let rec go i =
        i < ndeps && ((Array.unsafe_get deps i).d_seg == seg || go (i + 1))
      in
      go 0
    in
    let tr_len = List.length sels in
    let store_guard_failed next_pc fuel =
      (* The store really changed compiled code: stop before any stale
         instruction can run and let the entry path recompile. *)
      valid := false;
      (Stats.cur ()).instructions <-
        (Stats.cur ()).instructions + (ctx.c_fin - fuel);
      (Stats.cur ()).jit_exits <- (Stats.cur ()).jit_exits + 1;
      ctx.c_pc <- next_pc;
      X_side fuel
    in
    let side_exit target fuel =
      if !log_enabled then
        Printf.eprintf "[jit] trace@0x%08x side exit -> 0x%08x\n%!" entry_pc
          target;
      (Stats.cur ()).instructions <-
        (Stats.cur ()).instructions + (ctx.c_fin - fuel);
      (Stats.cur ()).jit_exits <- (Stats.cur ()).jit_exits + 1;
      ctx.c_pc <- target;
      X_side fuel
    in
    (* The loop edge is the only fuel check in the whole chain: loop
       only while a full further iteration fits in the quantum, and
       hand the tail back to the interpreter otherwise (not counted as
       a trace break — nothing was mispredicted).  Every re-entry into
       [head] — the fall-off-the-end tail and any taken mid-trace
       branch back to the entry — must pass through this gate: the
       steps themselves never check fuel, so an ungated cycle would
       spin forever on a divergent program. *)
    let loop_edge fuel =
      if fuel >= tr_len then !head fuel
      else begin
        (Stats.cur ()).instructions <-
          (Stats.cur ()).instructions + (ctx.c_fin - fuel);
        ctx.c_pc <- entry_pc;
        X_side fuel
      end
    in
    let tail_step =
      match tail with
      | T_loop -> loop_edge
      | T_exit pc -> fun fuel -> side_exit pc fuel
      | T_none -> fun _ -> assert false
    in
    (* Steps carry no fuel check and no instruction billing: the entry
       gate guarantees [tr_len] fuel, every step consumes exactly one,
       and the exit helpers settle the counter from the difference.
       [Codec.mask32]/[Codec.sext32] are inlined by hand (no flambda):
       register values are already masked, so sign extension is one
       test on bit 31. *)
    let new_lic () =
      {
        l_page = -1;
        l_hi = 0;
        l_bytes = Bytes.empty;
        l_gen = -1;
        l_seg = anchor_seg;
        l_epoch = -1;
      }
    in
    let new_sic () =
      {
        s_page = -1;
        s_hi = 0;
        s_delta = 0;
        s_seg = anchor_seg;
        s_epoch = -1;
        s_bytes = Bytes.empty;
        s_gen = -1;
        s_lim = 0;
        s_code = true;
      }
    in
    let step_of sel next =
      let pc = sel.s_pc in
      let skip () fuel = next (fuel - 1) in
      match sel.s_kind with
      | K_halt ->
        fun fuel ->
          (Stats.cur ()).instructions <-
            (Stats.cur ()).instructions + (ctx.c_fin - (fuel - 1));
          ctx.c_pc <- pc;
          let a0 = Array.unsafe_get regs Reg.a0 in
          X_halt
            ( (if a0 land 0x8000_0000 <> 0 then a0 - 0x1_0000_0000 else a0),
              fuel - 1 )
      | K_syscall ->
        fun fuel ->
          (Stats.cur ()).instructions <-
            (Stats.cur ()).instructions + (ctx.c_fin - (fuel - 1));
          (Stats.cur ()).syscalls <- (Stats.cur ()).syscalls + 1;
          ctx.c_pc <- pc + 4;
          X_syscall (fuel - 1)
      | K_jump -> skip ()
      | K_jal ->
        let ret = Codec.mask32 (pc + 4) in
        fun fuel ->
          Array.unsafe_set regs Reg.ra ret;
          next (fuel - 1)
      | K_jal_exit target ->
        let ret = Codec.mask32 (pc + 4) in
        fun fuel ->
          Array.unsafe_set regs Reg.ra ret;
          side_exit target (fuel - 1)
      | K_jr_guard expected | K_jr_guess expected -> (
        match sel.s_insn with
        | Insn.Jr rs ->
          fun fuel ->
            let target = Array.unsafe_get regs rs in
            if target = expected then next (fuel - 1)
            else side_exit target (fuel - 1)
        | _ -> assert false)
      | K_jalr_guess expected -> (
        match sel.s_insn with
        | Insn.Jalr (rd, rs) ->
          let ret = Codec.mask32 (pc + 4) in
          fun fuel ->
            (* Read the target before writing rd: Jalr rd rs with
               rd = rs jumps to the *old* value, like the interpreter. *)
            let target = Array.unsafe_get regs rs in
            if rd <> 0 then Array.unsafe_set regs rd ret;
            if target = expected then next (fuel - 1)
            else side_exit target (fuel - 1)
        | _ -> assert false)
      | K_jalr_exit -> (
        match sel.s_insn with
        | Insn.Jalr (rd, rs) ->
          let ret = Codec.mask32 (pc + 4) in
          fun fuel ->
            let target = Array.unsafe_get regs rs in
            if rd <> 0 then Array.unsafe_set regs rd ret;
            side_exit target (fuel - 1)
        | _ -> assert false)
      | K_br_exit _ | K_br_loop -> (
        let taken_step =
          match sel.s_kind with
          | K_br_exit target -> fun fuel -> side_exit target fuel
          | K_br_loop -> loop_edge
          | _ -> assert false
        in
        match sel.s_insn with
        | Insn.Beq (rs, rt, _) ->
          fun fuel ->
            if Array.unsafe_get regs rs = Array.unsafe_get regs rt then
              taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Bne (rs, rt, _) ->
          fun fuel ->
            if Array.unsafe_get regs rs <> Array.unsafe_get regs rt then
              taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Blez (rs, _) ->
          fun fuel ->
            let v = Array.unsafe_get regs rs in
            if v = 0 || v land 0x8000_0000 <> 0 then taken_step (fuel - 1)
            else next (fuel - 1)
        | Insn.Bgtz (rs, _) ->
          fun fuel ->
            let v = Array.unsafe_get regs rs in
            if v <> 0 && v land 0x8000_0000 = 0 then taken_step (fuel - 1)
            else next (fuel - 1)
        | _ -> assert false)
      | K_plain -> (
        let sx v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
        match sel.s_insn with
        | Insn.Sll (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rt lsl sh land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Srl (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd (Array.unsafe_get regs rt lsr sh);
            next (fuel - 1)
        | Insn.Sra (rd, rt, sh) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (sx (Array.unsafe_get regs rt) asr sh land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Add (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              ((Array.unsafe_get regs rs + Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Sub (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              ((Array.unsafe_get regs rs - Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Mul (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (sx (Array.unsafe_get regs rs)
              * sx (Array.unsafe_get regs rt)
              land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Div (rd, rs, rt) ->
          fun fuel ->
            if Array.unsafe_get regs rt = 0 then begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              raise (Error { e_pc = pc; e_msg = "division by zero" })
            end;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (sx (Array.unsafe_get regs rs)
                / sx (Array.unsafe_get regs rt)
                land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Rem (rd, rs, rt) ->
          fun fuel ->
            if Array.unsafe_get regs rt = 0 then begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              raise (Error { e_pc = pc; e_msg = "remainder by zero" })
            end;
            if rd <> 0 then
              Array.unsafe_set regs rd
                (sx (Array.unsafe_get regs rs)
                mod sx (Array.unsafe_get regs rt)
                land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.And (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs land Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Or (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs lor Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Xor (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (Array.unsafe_get regs rs lxor Array.unsafe_get regs rt);
            next (fuel - 1)
        | Insn.Slt (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (if sx (Array.unsafe_get regs rs) < sx (Array.unsafe_get regs rt)
               then 1
               else 0);
            next (fuel - 1)
        | Insn.Sltu (rd, rs, rt) ->
          if rd = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rd
              (if Array.unsafe_get regs rs < Array.unsafe_get regs rt then 1
               else 0);
            next (fuel - 1)
        | Insn.Addi (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt
              ((Array.unsafe_get regs rs + imm) land 0xFFFF_FFFF);
            next (fuel - 1)
        | Insn.Slti (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt
              (if sx (Array.unsafe_get regs rs) < imm then 1 else 0);
            next (fuel - 1)
        | Insn.Andi (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs land imm);
            next (fuel - 1)
        | Insn.Ori (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs lor imm);
            next (fuel - 1)
        | Insn.Xori (rt, rs, imm) ->
          if rt = 0 then skip ()
          else
            fun fuel ->
            Array.unsafe_set regs rt (Array.unsafe_get regs rs lxor imm);
            next (fuel - 1)
        | Insn.Lui (rt, imm) ->
          if rt = 0 then skip ()
          else begin
            let v = imm lsl 16 land 0xFFFF_FFFF in
            fun fuel ->
              Array.unsafe_set regs rt v;
              next (fuel - 1)
          end
        | Insn.Lw (rt, base, off) ->
          let ic = new_lic () in
          fun fuel ->
            let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
            let v =
              if
                ic.l_page = a land pbase_mask
                && a + 4 <= ic.l_hi
                && ic.l_epoch = ctx.c_epoch
                && Segment.page_gen ic.l_seg = ic.l_gen
              then begin
                (* [a + 4 <= l_hi] and [a] on the cached page bound the
                   unsafe read inside the page's bytes. *)
                Codec.unsafe_get_u32 ic.l_bytes (a land pmask)
              end
              else begin
                ctx.c_pc <- pc;
                ctx.c_fuel <- fuel;
                let v = As.load_u32 space a in
                fill_lic ic ctx space a;
                v
              end
            in
            if rt <> 0 then Array.unsafe_set regs rt v;
            next (fuel - 1)
        | Insn.Lb (rt, base, off) ->
          let ic = new_lic () in
          fun fuel ->
            let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
            let v =
              if
                ic.l_page = a land pbase_mask
                && a < ic.l_hi
                && ic.l_epoch = ctx.c_epoch
                && Segment.page_gen ic.l_seg = ic.l_gen
              then Char.code (Bytes.unsafe_get ic.l_bytes (a land pmask))
              else begin
                ctx.c_pc <- pc;
                ctx.c_fuel <- fuel;
                let v = As.load_u8 space a in
                fill_lic ic ctx space a;
                v
              end
            in
            if rt <> 0 then Array.unsafe_set regs rt v;
            next (fuel - 1)
        | Insn.Sw (rt, base, off) ->
          let ic = new_sic () in
          fun fuel ->
            let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
            if
              ic.s_page = a land pbase_mask
              && a + 4 <= ic.s_lim
              && ic.s_epoch = ctx.c_epoch
              && Segment.page_gen ic.s_seg = ic.s_gen
            then begin
              Codec.unsafe_set_u32 ic.s_bytes (a land pmask)
                (Array.unsafe_get regs rt);
              Segment.bump_version ic.s_seg;
              if not ic.s_code then next (fuel - 1)
              else if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
            else if
              ic.s_page = a land pbase_mask
              && a + 4 <= ic.s_hi
              && ic.s_epoch = ctx.c_epoch
            then begin
              Segment.set_u32 ic.s_seg (a + ic.s_delta)
                (Array.unsafe_get regs rt);
              if not ic.s_code then next (fuel - 1)
              else if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
            else begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              As.store_u32 space a (Array.unsafe_get regs rt);
              fill_sic ic ctx space a;
              ic.s_code <- ic.s_page < 0 || seg_in_deps ic.s_seg;
              if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
        | Insn.Sb (rt, base, off) ->
          let ic = new_sic () in
          fun fuel ->
            let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
            if
              ic.s_page = a land pbase_mask
              && a < ic.s_lim
              && ic.s_epoch = ctx.c_epoch
              && Segment.page_gen ic.s_seg = ic.s_gen
            then begin
              Bytes.unsafe_set ic.s_bytes (a land pmask)
                (Char.unsafe_chr (Array.unsafe_get regs rt land 0xFF));
              Segment.bump_version ic.s_seg;
              if not ic.s_code then next (fuel - 1)
              else if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
            else if
              ic.s_page = a land pbase_mask
              && a < ic.s_hi
              && ic.s_epoch = ctx.c_epoch
            then begin
              Segment.set_u8 ic.s_seg (a + ic.s_delta)
                (Array.unsafe_get regs rt land 0xFF);
              if not ic.s_code then next (fuel - 1)
              else if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
            else begin
              ctx.c_pc <- pc;
              ctx.c_fuel <- fuel;
              As.store_u8 space a (Array.unsafe_get regs rt land 0xFF);
              fill_sic ic ctx space a;
              ic.s_code <- ic.s_page < 0 || seg_in_deps ic.s_seg;
              if deps_fast () || deps_reverify () then next (fuel - 1)
              else store_guard_failed (pc + 4) (fuel - 1)
            end
        | Insn.Break | Insn.Syscall | Insn.J _ | Insn.Jal _ | Insn.Jr _
        | Insn.Jalr _ | Insn.Beq _ | Insn.Bne _ | Insn.Blez _ | Insn.Bgtz _ ->
          assert false)
    in
    (* --- pair fusion --------------------------------------------------
       Compiled code is dominated by stack push/pop idioms — an ADDI
       adjust glued to a load or store — so adjacent pairs drawn from
       {ADDI, constant writes (LUI / inlined JAL's ra), LW, SW} become
       one closure executing both instructions strictly in order.  Each
       arm is fully specialised at build time: no runtime dispatch on
       the opcode is ever introduced, because a shared dispatch site is
       exactly the kind of data-dependent indirect branch the fusion is
       trying to remove.  The second instruction stamps its own pc and
       fuel before any access that can fault or fill, so traps, side
       exits and billing are indistinguishable from the unfused chain;
       a store that overwrites trace code still exits before the next
       compiled instruction runs. *)
    (* [fl] is the fuel remaining at this instruction, stamped with the
       pc before the slow path so a fault resumes exactly here. *)
    let lw_do ic pc base off rt fl =
      let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
      let v =
        if
          ic.l_page = a land pbase_mask
          && a + 4 <= ic.l_hi
          && ic.l_epoch = ctx.c_epoch
          && Segment.page_gen ic.l_seg = ic.l_gen
        then Codec.unsafe_get_u32 ic.l_bytes (a land pmask)
        else begin
          ctx.c_pc <- pc;
          ctx.c_fuel <- fl;
          let v = As.load_u32 space a in
          fill_lic ic ctx space a;
          v
        end
      in
      if rt <> 0 then Array.unsafe_set regs rt v
    in
    (* Returns false when the store overwrote this trace's own code:
       the caller must side exit before the next compiled instruction. *)
    let sw_do ic pc base off rt fl =
      let a = (Array.unsafe_get regs base + off) land 0xFFFF_FFFF in
      if
        ic.s_page = a land pbase_mask
        && a + 4 <= ic.s_lim
        && ic.s_epoch = ctx.c_epoch
        && Segment.page_gen ic.s_seg = ic.s_gen
      then begin
        Codec.unsafe_set_u32 ic.s_bytes (a land pmask) (Array.unsafe_get regs rt);
        Segment.bump_version ic.s_seg;
        (not ic.s_code) || deps_fast () || deps_reverify ()
      end
      else if
        ic.s_page = a land pbase_mask
        && a + 4 <= ic.s_hi
        && ic.s_epoch = ctx.c_epoch
      then begin
        Segment.set_u32 ic.s_seg (a + ic.s_delta) (Array.unsafe_get regs rt);
        (not ic.s_code) || deps_fast () || deps_reverify ()
      end
      else begin
        ctx.c_pc <- pc;
        ctx.c_fuel <- fl;
        As.store_u32 space a (Array.unsafe_get regs rt);
        fill_sic ic ctx space a;
        ic.s_code <- ic.s_page < 0 || seg_in_deps ic.s_seg;
        deps_fast () || deps_reverify ()
      end
    in
    (* `Li is a constant register write: LUI, an inlined JAL's ra
       write, or a followed J (a no-op, encoded as a write to r0).
       `Ori only ever fuses as the second half of a LUI/ORI veneer
       constant build; anything else stays a single closure. *)
    let op_of sel =
      match (sel.s_kind, sel.s_insn) with
      | K_jal, _ -> `Li (Reg.ra, Codec.mask32 (sel.s_pc + 4))
      | K_jump, _ -> `Li (0, 0)
      | K_plain, Insn.Lui (rt, imm) -> `Li (rt, imm lsl 16 land 0xFFFF_FFFF)
      | K_plain, Insn.Addi (rt, rs, imm) -> `Addi (rt, rs, imm)
      | K_plain, Insn.Ori (rt, rs, imm) -> `Ori (rt, rs, imm)
      | K_plain, Insn.Lw (rt, base, off) -> `Lw (rt, base, off)
      | K_plain, Insn.Sw (rt, base, off) -> `Sw (rt, base, off)
      | _ -> `No
    in
    (* [next] must be in scope before the fused closure is built: a
       two-argument [fun next fuel -> ...] partially applied would
       route every chain hop through the generic currying apply. *)
    let fused pc1 pc2 o1 o2 next =
      match (o1, o2) with
      | `Addi (r1, s1, i1), `Addi (r2, s2, i2) ->
        Some
          (fun fuel ->
            if r1 <> 0 then
              Array.unsafe_set regs r1
                ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
            if r2 <> 0 then
              Array.unsafe_set regs r2
                ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
            next (fuel - 2))
      | `Addi (r1, s1, i1), `Li (r2, v2) ->
        Some
          (fun fuel ->
            if r1 <> 0 then
              Array.unsafe_set regs r1
                ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
            if r2 <> 0 then Array.unsafe_set regs r2 v2;
            next (fuel - 2))
      | `Li (r1, v1), `Addi (r2, s2, i2) ->
        Some
          (fun fuel ->
            if r1 <> 0 then Array.unsafe_set regs r1 v1;
            if r2 <> 0 then
              Array.unsafe_set regs r2
                ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
            next (fuel - 2))
      | `Li (r1, v1), `Li (r2, v2) ->
        Some
          (fun fuel ->
            if r1 <> 0 then Array.unsafe_set regs r1 v1;
            if r2 <> 0 then Array.unsafe_set regs r2 v2;
            next (fuel - 2))
      | `Li (r1, v1), `Ori (r2, s2, i2) when s2 = r1 && r1 <> 0 ->
        (* LUI/ORI veneer: the second write is a compile-time constant. *)
        let v2 = v1 lor i2 in
        Some
          (fun fuel ->
            Array.unsafe_set regs r1 v1;
            if r2 <> 0 then Array.unsafe_set regs r2 v2;
            next (fuel - 2))
      | `Addi (r1, s1, i1), `Lw (rt, base, off) ->
        let ic = new_lic () in
        Some
          (fun fuel ->
            if r1 <> 0 then
              Array.unsafe_set regs r1
                ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
            lw_do ic pc2 base off rt (fuel - 1);
            next (fuel - 2))
      | `Li (r1, v1), `Lw (rt, base, off) ->
        let ic = new_lic () in
        Some
          (fun fuel ->
            if r1 <> 0 then Array.unsafe_set regs r1 v1;
            lw_do ic pc2 base off rt (fuel - 1);
            next (fuel - 2))
      | `Addi (r1, s1, i1), `Sw (rt, base, off) ->
        let ic = new_sic () in
        Some
          (fun fuel ->
            if r1 <> 0 then
              Array.unsafe_set regs r1
                ((Array.unsafe_get regs s1 + i1) land 0xFFFF_FFFF);
            if sw_do ic pc2 base off rt (fuel - 1) then next (fuel - 2)
            else store_guard_failed (pc2 + 4) (fuel - 2))
      | `Li (r1, v1), `Sw (rt, base, off) ->
        let ic = new_sic () in
        Some
          (fun fuel ->
            if r1 <> 0 then Array.unsafe_set regs r1 v1;
            if sw_do ic pc2 base off rt (fuel - 1) then next (fuel - 2)
            else store_guard_failed (pc2 + 4) (fuel - 2))
      | `Lw (rt, base, off), `Addi (r2, s2, i2) ->
        let ic = new_lic () in
        Some
          (fun fuel ->
            lw_do ic pc1 base off rt fuel;
            if r2 <> 0 then
              Array.unsafe_set regs r2
                ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
            next (fuel - 2))
      | `Lw (rt, base, off), `Li (r2, v2) ->
        let ic = new_lic () in
        Some
          (fun fuel ->
            lw_do ic pc1 base off rt fuel;
            if r2 <> 0 then Array.unsafe_set regs r2 v2;
            next (fuel - 2))
      | `Lw (rt1, b1, o1), `Lw (rt2, b2, o2) ->
        let ic1 = new_lic () and ic2 = new_lic () in
        Some
          (fun fuel ->
            lw_do ic1 pc1 b1 o1 rt1 fuel;
            lw_do ic2 pc2 b2 o2 rt2 (fuel - 1);
            next (fuel - 2))
      | `Lw (rt1, b1, o1), `Sw (rt2, b2, o2) ->
        let ic1 = new_lic () and ic2 = new_sic () in
        Some
          (fun fuel ->
            lw_do ic1 pc1 b1 o1 rt1 fuel;
            if sw_do ic2 pc2 b2 o2 rt2 (fuel - 1) then next (fuel - 2)
            else store_guard_failed (pc2 + 4) (fuel - 2))
      | `Sw (rt1, b1, o1), `Addi (r2, s2, i2) ->
        let ic = new_sic () in
        Some
          (fun fuel ->
            if sw_do ic pc1 b1 o1 rt1 fuel then begin
              if r2 <> 0 then
                Array.unsafe_set regs r2
                  ((Array.unsafe_get regs s2 + i2) land 0xFFFF_FFFF);
              next (fuel - 2)
            end
            else store_guard_failed (pc1 + 4) (fuel - 1))
      | `Sw (rt1, b1, o1), `Li (r2, v2) ->
        let ic = new_sic () in
        Some
          (fun fuel ->
            if sw_do ic pc1 b1 o1 rt1 fuel then begin
              if r2 <> 0 then Array.unsafe_set regs r2 v2;
              next (fuel - 2)
            end
            else store_guard_failed (pc1 + 4) (fuel - 1))
      | `Sw (rt1, b1, o1), `Lw (rt2, b2, o2) ->
        let ic1 = new_sic () and ic2 = new_lic () in
        Some
          (fun fuel ->
            if sw_do ic1 pc1 b1 o1 rt1 fuel then begin
              lw_do ic2 pc2 b2 o2 rt2 (fuel - 1);
              next (fuel - 2)
            end
            else store_guard_failed (pc1 + 4) (fuel - 1))
      | `Sw (rt1, b1, o1), `Sw (rt2, b2, o2) ->
        let ic1 = new_sic () and ic2 = new_sic () in
        Some
          (fun fuel ->
            if sw_do ic1 pc1 b1 o1 rt1 fuel then
              if sw_do ic2 pc2 b2 o2 rt2 (fuel - 1) then next (fuel - 2)
              else store_guard_failed (pc2 + 4) (fuel - 2)
            else store_guard_failed (pc1 + 4) (fuel - 1))
      | _ -> None
    in
    (* Must mirror [fused] exactly: the chain for the pair's suffix is
       only built once fusibility is known, keeping [build] linear. *)
    let fusible o1 o2 =
      match (o1, o2) with
      | (`Addi _ | `Li _ | `Lw _ | `Sw _), (`Addi _ | `Li _ | `Lw _ | `Sw _)
        ->
        true
      | `Li (r1, _), `Ori (_, s2, _) -> s2 = r1 && r1 <> 0
      | _ -> false
    in
    let rec build = function
      | [] -> tail_step
      | [ sel ] -> step_of sel tail_step
      | s1 :: (s2 :: rest2 as rest1) ->
        let o1 = op_of s1 and o2 = op_of s2 in
        if fusible o1 o2 then
          match fused s1.s_pc s2.s_pc o1 o2 (build rest2) with
          | Some step -> step
          | None -> assert false
        else step_of s1 (build rest1)
    in
    let first = build sels in
    head := first;
    if !log_enabled then begin
      prerr_string
        (Disasm.trace_listing ~entry:entry_pc
           (List.map (fun s -> (s.s_pc, s.s_word, note_of s.s_kind)) sels));
      (match tail with
      | T_loop -> Printf.eprintf "  -> loops to 0x%08x\n" entry_pc
      | T_exit pc -> Printf.eprintf "  -> exits to 0x%08x\n" pc
      | T_none -> ());
      flush stderr
    end;
    Some
      {
        tr_entry = entry_pc;
        tr_len;
        tr_deps = deps;
        tr_epoch = As.epoch space;
        tr_valid = valid;
        tr_first = first;
      }

(* --- dispatch --------------------------------------------------------- *)

let bind st space =
  match st.st_space with
  | Some sp when sp == space -> ()
  | _ ->
    (* A state is tied to one address space (the kernel pairs each CPU
       with its process's space for life); a rebind is a test harness
       reusing a CPU, so just drop everything. *)
    Hashtbl.reset st.st_tbl;
    st.st_space <- Some space

(* A trace only runs when the remaining quantum covers its full static
   length — that one check replaces a per-instruction fuel test in
   every step, and the interpreter (which stops on the exact boundary)
   always runs the quantum's tail. *)
let run_trace st space tr fuel =
  if fuel < tr.tr_len then Missed
  else begin
    let ctx = st.st_ctx in
    ctx.c_epoch <- As.epoch space;
    ctx.c_fin <- fuel;
    (Stats.cur ()).jit_hits <- (Stats.cur ()).jit_hits + 1;
    match tr.tr_first fuel with
    | x -> Ran x
    | exception e ->
      (* The trapping instruction was entered but not completed: settle
         the completed prefix plus its own tick (the interpreter bills
         before executing) and let the CPU translate the exception. *)
      (Stats.cur ()).instructions <-
        (Stats.cur ()).instructions + (ctx.c_fin - ctx.c_fuel) + 1;
      raise e
  end

let compile_and_run st space pc fuel =
  match compile st space pc with
  | Some tr ->
    (Stats.cur ()).jit_compiles <- (Stats.cur ()).jit_compiles + 1;
    Hashtbl.replace st.st_tbl pc (Compiled tr);
    run_trace st space tr fuel
  | None ->
    (* Not compilable right now (too short, or the path is unfetchable
       — e.g. a lazily-linked page still mapped no-access).  Reset the
       counter rather than blacklisting: once the page is linked the
       head warms up again and compiles. *)
    Hashtbl.replace st.st_tbl pc (Counting 0);
    Missed

let enter st space pc fuel =
  bind st space;
  match Hashtbl.find_opt st.st_tbl pc with
  | Some (Compiled tr) ->
    if validate tr space then run_trace st space tr fuel
    else begin
      (Stats.cur ()).jit_invalidations <- (Stats.cur ()).jit_invalidations + 1;
      compile_and_run st space pc fuel
    end
  | Some (Counting n) ->
    let n = n + 1 in
    if n >= !threshold then compile_and_run st space pc fuel
    else begin
      Hashtbl.replace st.st_tbl pc (Counting n);
      Missed
    end
  | None ->
    if 1 >= !threshold then compile_and_run st space pc fuel
    else begin
      Hashtbl.add st.st_tbl pc (Counting 1);
      Missed
    end
