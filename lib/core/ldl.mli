(** ldl — the lazy dynamic linker, and the Hemlock run-time service.

    [install] hooks the linker into a kernel:

    - a binfmt loader for the a.out images lds produces (maps the
      private static image and the retained link state);
    - the [ldl_run] syscall that crt0 traps into before [main]: it maps
      the static public modules, creates and instantiates the dynamic
      modules (public ones under a file lock, so the first process of a
      parallel application creates the shared data and the rest link
      it), and resolves the image's retained relocations against them;
    - the user-level SIGSEGV handler of §2: a faulting public address
      is translated to a path with the new kernel call and mapped —
      through the linker when the file is a module, as a plain mapping
      otherwise — and a faulting access to a module that was mapped
      without access permissions triggers resolution of all of that
      module's references (lazy linking), which may in turn map further
      modules, inaccessibly, recursively.

    Scoped linking: each instance resolves first against the modules on
    its own list (located through its own search path), then its
    parent's, up to the root; root-level resolution also sees the main
    image's exports.  References unresolved at the root are left to
    fault. *)

module Kernel = Hemlock_os.Kernel
module Proc = Hemlock_os.Proc

type t

(** Install the service on a kernel.  Call once per kernel. *)
val install : Kernel.t -> t

val kernel : t -> Kernel.t

(** LD_BIND_NOW-style eager mode: when set, ldl's start-up pass
    transitively links every reachable module instead of leaving them
    to fault.  The eager baseline of E8. *)
val set_bind_now : t -> bool -> unit

(** Runtime warnings accumulated (missing dynamic modules, unresolved
    references left at the root, ...). *)
val warnings : t -> string list

(** {1 Introspection (tests and benches)}

    Post-mortem contract: a process's link state dies with it.  At exit
    ldl removes it from its kernel-lifetime table and moves it onto the
    exited {!Proc.t} (a {!Proc.remains} entry), so {!instances},
    {!instance_at}, {!pending_image_relocs} and {!linkstat_proc_json}
    answer exactly as they did at the moment of exit for as long as the
    caller holds the record, and the state is freed when the caller
    drops it.  {!linkstat_json} keeps one small row per exited pid
    instead.  Only the shared segments, and the templates {!stable_sync}
    persists, outlive the process. *)

(** Instances mapped into a process, in load order. *)
val instances : t -> Proc.t -> Modinst.t list

(** The instance whose range contains an address, if any. *)
val instance_at : t -> Proc.t -> int -> Modinst.t option

(** Retained image relocations still unresolved for this process. *)
val pending_image_relocs : t -> Proc.t -> Hemlock_obj.Objfile.reloc list

(** Processes whose link state ldl holds: those that exec'd a Hemlock
    image, were forked from one, or attached, and have not exited.  A
    count, not a timing, so tests can check exited processes leave no
    state behind. *)
val live_states : t -> int

(** {1 Native-process attachment}

    Native (harness) processes have no a.out, but still want the fault
    handler and the dlopen/dlsym interface. *)

val attach : t -> Proc.t -> unit

(** {1 Explicit dynamic loading (the dld-style interface)} *)

(** [dlopen t proc name] locates, instantiates and maps a module (lazy:
    unresolved modules are mapped without access).  May block on the
    creation lock. *)
val dlopen : t -> Proc.t -> string -> Modinst.t

(** [dlsym t proc name] resolves a symbol in the process's root scope. *)
val dlsym : t -> Proc.t -> string -> int option

(** Force a module's link pass now (what a fault would do). *)
val link_now : t -> Proc.t -> Modinst.t -> unit

(** {1 Stable linking}

    The in-memory plan store and template decode cache die with
    [Kernel.reboot]; {!stable_sync} persists them under
    [/shared/.stable] (see {!Stable_link}), and the reboot hook
    installed by {!install} reseeds from the persisted files so the
    first exec after reboot replays plans instead of walking scopes
    cold. *)

type sync_report = {
  sync_plans : int;  (** plan files persisted (or already present) *)
  sync_objs : int;  (** symbol-index files persisted (or present) *)
  sync_skipped : int;  (** files skipped on injected/FS failures *)
}

(** Persist every live link plan and the symbol index of every
    template an instance was built from since {!install} (exited
    processes' included; the set survives reboots) into
    [/shared/.stable] through the journalled write path.  An explicit
    sync point — the writes are billed like any other file writes, so
    no implicit exec path ever calls this.  A
    no-op (all zeros) when stable linking or the plan cache is off.
    Raises {!Hemlock_util.Fault.Crash} through (crash sweep). *)
val stable_sync : t -> sync_report

(** {1 Linkstat: resolution provenance}

    Host-side observability: every resolved symbol records how its last
    resolution was answered — the exporting module and scope, hash vs.
    linear vs. cached probe, and whether it came from a cold walk, an
    in-memory plan replay, a stable-boot replay, or dlsym. *)

(** Per-symbol provenance of one process, as a JSON array sorted by
    symbol: [{"symbol", "origin", "scope", "probe", "source",
    "count"}]. *)
val linkstat_proc_json : t -> Proc.t -> string

(** The kernel-wide linkstat dump: per-process aggregates (symbol
    counts by source and probe), kernel totals, and the full
    {!Hemlock_util.Stats} counter snapshot under ["stats"].  Every
    process that ever held link state has one row, in pid order: a live
    one's is counted now, an exited one's was counted at its exit (the
    row is all ldl keeps of it). *)
val linkstat_json : t -> string

