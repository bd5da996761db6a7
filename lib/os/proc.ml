type state =
  | Runnable
  | Blocked of { cond : unit -> bool; why : string }
  | Zombie of int

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
  mutable space : Hemlock_vm.Address_space.t;
  mutable cwd : Hemlock_sfs.Path.t;
  mutable env : (string * string) list;
  mutable state : state;
  mutable body : body;
  mutable brk : int;
  mutable comm : string;
}

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Wait_until : { cond : unit -> bool; why : string } -> unit Effect.t

exception Exit_proc of int
exception Killed of { pid : int; reason : string }

let yield () = Effect.perform Yield

let wait_until ?(why = "wait_until") cond =
  if not (cond ()) then Effect.perform (Wait_until { cond; why })

let is_zombie t = match t.state with Zombie _ -> true | Runnable | Blocked _ -> false

let getenv t name = List.assoc_opt name t.env

let setenv t name value = t.env <- (name, value) :: List.remove_assoc name t.env
