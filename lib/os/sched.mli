(** The scheduler: process table, pids, daemons, the round-robin run
    loop, and deadlock detection.

    A pass costs O(live processes) and a wait lookup O(the caller's
    children), however many exited processes the table still holds:
    the run list keeps only processes that have not exited, in pid
    order, and a per-parent index keeps each process's unreaped
    children.  A zombie stays in the pid table (for {!find},
    {!processes} and its parent's {!zombie_child}) until reaped; this
    layer only keeps the table, and {!Kernel} decides when to reap
    (at a wait, or at exit when no live parent can wait).

    What a quantum {e does} (stepping an ISA cpu, resuming a native
    continuation) stays in {!Kernel}; this layer decides {e who} runs,
    wakes blocked processes whose conditions hold, and diagnoses the
    idle-but-blocked state as a structured deadlock. *)

(** One stuck process in a deadlock report. *)
type blocked = { b_pid : int; b_comm : string; b_why : string }

(** Non-daemon processes are blocked and nothing can wake them.  A
    printer is registered, so an uncaught [Deadlock] shows
    {!deadlock_message} rather than an opaque payload. *)
exception Deadlock of blocked list

(** ["pid 4 (waiter) waiting on flock /tmp/l, pid 7 (…) …"] *)
val deadlock_message : blocked list -> string

type t

val create : unit -> t
val fresh_pid : t -> int

(** Enter a process into the table, the run list and its parent's
    child index.  Pids must be added in increasing order, as
    {!fresh_pid} hands them out; [Proc.parent] is read once, here. *)
val add : t -> Proc.t -> unit

(** Reap a zombie: its pid leaves the table and its parent's child
    index, and loses daemon status.  The {!Proc.t} itself is untouched
    (it stays [Zombie code] for whoever holds it); only {!find},
    {!processes} and {!children} stop returning it.  No-op for a pid
    not in the table. *)
val remove : t -> int -> unit

(** [remove_zombie_children t pid] reaps every zombie child of [pid] at
    once, in O([pid]'s children), and returns them; its live children
    stay indexed under [pid]. *)
val remove_zombie_children : t -> int -> Proc.t list

val find : t -> int -> Proc.t option

(** Every process in the table, zombies included, sorted by pid.  Built
    on demand (O(n log n)); the scheduler itself never calls it. *)
val processes : t -> Proc.t list

(** The run list a pass walks: processes that have not exited, in pid
    order. *)
val live : t -> Proc.t list

(** [children t pid]: [pid]'s unreaped children, in pid order. *)
val children : t -> int -> Proc.t list

(** [has_children t pid] = [children t pid <> []], in O(1). *)
val has_children : t -> int -> bool

(** The lowest-pid zombie among [pid]'s children, if any — the one a
    wait reaps. *)
val zombie_child : t -> int -> Proc.t option

(** Process records examined so far by the run-list walks and
    {!zombie_child}: a measure of scheduler work that needs no clock. *)
val visits : t -> int

val set_daemon : t -> Proc.t -> unit
val is_daemon : t -> int -> bool

(** Monotonic count of quanta handed out. *)
val ticks : t -> int

(** Blocked non-daemons with their wait reasons (the deadlock set when
    nothing is runnable). *)
val blocked_nondaemons : t -> blocked list

(** One pass: wake what can wake, then give every runnable process a
    quantum via [run_one].  [`Progress] — something ran; [`Idle] —
    nothing runnable but non-daemons are blocked; [`Done] — only
    zombies and blocked daemons remain.  Processes added during the
    pass first run in the next one. *)
val step : t -> run_one:(Proc.t -> unit) -> [ `Progress | `Idle | `Done ]

(** Like {!step}, but billing for {e every} dispatched quantum (ticks
    and context switches) happens up front on the calling domain, and
    [run_many] then executes the whole runnable batch — the kernel
    decides how to spread it over domains.  Totals match the
    sequential pass for any partition. *)
val step_par : t -> run_many:(Proc.t list -> unit) -> [ `Progress | `Idle | `Done ]

(** Loop {!step} to completion.  [on_budget] is called when [max_ticks]
    quanta have been spent (it should raise).
    @raise Deadlock on [`Idle]. *)
val run :
  ?max_ticks:int -> t -> run_one:(Proc.t -> unit) -> on_budget:(unit -> unit) -> unit
