(** Process records and the cooperative-scheduling effects.

    A process is either an {b ISA} process (a {!Hemlock_isa.Cpu.t}
    stepped by the kernel's scheduler, quantum by quantum) or a {b
    native} process (an OCaml closure run under an effect handler, used
    for daemons and workload harness code).  Native processes block and
    yield by performing the effects below; the kernel's scheduler
    captures the continuation.

    In the paper's terms a process is a protection domain: its
    {!Hemlock_vm.Address_space.t} has overloaded private mappings plus
    the globally-consistent public region. *)

type state =
  | Runnable
  | Blocked of { cond : unit -> bool; why : string }
      (** runnable again when [cond] holds; [why] is the human-readable
          wait reason surfaced by deadlock diagnostics *)
  | Zombie of int
      (** exited with code; final.  The record keeps this state after
          the kernel reaps the pid (at its parent's wait, or at once when
          no live parent can wait), so whoever holds it can still read
          the exit code. *)

type outcome = Finished of int | Crashed of exn | Paused

type nstate =
  | Not_started of (unit -> int)
  | Suspended of (unit, outcome) Effect.Deep.continuation
  | Done

type native = { mutable nstate : nstate }

type body = Isa of Hemlock_isa.Cpu.t | Native of native

type t = {
  pid : int;
  parent : int;
      (** pid of the parent, 0 for a top-level process; fixed at spawn
          because the scheduler indexes children by it *)
  mutable space : Hemlock_vm.Address_space.t;
  mutable cwd : Hemlock_sfs.Path.t;
  mutable env : (string * string) list;
  mutable state : state;
  mutable body : body;
  mutable brk : int;  (** heap break for sbrk *)
  mutable comm : string;  (** command name, for diagnostics *)
}

(** Performed by native process code to let others run. *)
type _ Effect.t += Yield : unit Effect.t

(** Performed to block until a condition becomes true; [why] labels the
    wait for deadlock reports. *)
type _ Effect.t += Wait_until : { cond : unit -> bool; why : string } -> unit Effect.t

(** Raised (or performed) by native bodies to terminate. *)
exception Exit_proc of int

(** Raised into native code when an unhandled fault kills the process. *)
exception Killed of { pid : int; reason : string }

val yield : unit -> unit

(** [wait_until ?why cond] blocks the calling native process until
    [cond] holds.  [why] (default ["wait_until"]) appears in
    {!Sched.Deadlock} diagnostics if the wait never ends. *)
val wait_until : ?why:string -> (unit -> bool) -> unit

val is_zombie : t -> bool

(** Environment-variable access ([getenv]/[setenv]). *)
val getenv : t -> string -> string option

val setenv : t -> string -> string -> unit
