(** The interpreter.  Every fetch, load and store goes through a
    {!Hemlock_vm.Address_space.t}, so touching an unmapped or protected
    address raises {!Hemlock_vm.Address_space.Fault} {e out of}
    {!step} with the pc still pointing at the faulting instruction —
    after the kernel runs the process's SIGSEGV handler the instruction
    restarts, exactly the behaviour Hemlock's lazy linker relies on. *)

(** A CPU: registers, pc and its trace-JIT state.  The interpreter
    keeps no decoded-instruction cache: every fetch reads the word
    through the address space and decodes it, so protections and
    stores are seen at once.  The trace JIT is the only cache of
    decoded code. *)
type t = {
  regs : int array;
  mutable pc : int;
  jit : Trace.state;  (** per-CPU trace-JIT state (see {!Trace}) *)
}

type status =
  | Running
  | Halted of int  (** exit code *)

(** Arithmetic traps (division/remainder by zero). *)
exception Cpu_error of { pc : int; msg : string }

(** A fetched word that does not decode.  {!run_trap} converts it to
    {!Trap.Illegal} so the kernel can kill the process like a SIGILL;
    through {!step}/{!run} it propagates to the caller. *)
exception Illegal_insn of { ill_pc : int; ill_word : int }

val create : entry:int -> sp:int -> t

(** [fork t] copies registers and pc; the child's trace-JIT state
    starts empty. *)
val fork : t -> t

val reg : t -> Reg.t -> int

(** Writes to register 0 are discarded; values are masked to 32 bits. *)
val set_reg : t -> Reg.t -> int -> unit

(** Execute one instruction.  [syscall] is invoked for SYSCALL traps
    with the pc already advanced past the instruction, so a handler that
    blocks and later resumes continues after the trap; it reads and
    writes registers itself.  May raise [Address_space.Fault] (pc
    unmoved) or [Cpu_error]. *)
val step : t -> Hemlock_vm.Address_space.t -> syscall:(t -> unit) -> status

(** [run ~fuel t as_ ~syscall] steps until halt or fuel runs out. *)
val run : fuel:int -> t -> Hemlock_vm.Address_space.t -> syscall:(t -> unit) -> status

(** Result of a {!run_trap} burst: the quantum's fuel ran dry, or the
    program trapped (syscall, fault, or halt — see {!Trap.t}). *)
type run_result = Out_of_fuel | Trapped of Trap.t

(** [run_trap ~fuel t as_] steps until the program traps or the fuel
    runs out, returning the trap (if any) and the fuel remaining, so the
    kernel can dispatch the trap and resume the same quantum.  Unlike
    {!run} no callback is involved: a SYSCALL returns [Trapped Syscall]
    with the pc past the instruction and one unit of fuel consumed, a
    memory fault returns [Trapped (Fault _)] with the pc unmoved and no
    fuel consumed, BREAK returns [Trapped (Halt code)], an undecodable
    word returns [Trapped (Illegal _)] with the pc unmoved and no fuel
    consumed.  Arithmetic traps still raise [Cpu_error].

    When the trace JIT is enabled (see {!Trace.enabled}) hot paths run
    as compiled closure chains; execution, traps and simulated costs
    are bit-identical to the plain interpreter either way. *)
val run_trap :
  fuel:int -> t -> Hemlock_vm.Address_space.t -> run_result * int

val pp : Format.formatter -> t -> unit
