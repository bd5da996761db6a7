(** A per-process virtual address space: a page-granular table mapping
    address ranges to {!Segment.t} windows with protections.

    Accesses that touch an unmapped address or violate protection raise
    {!Fault}; the kernel turns that into SIGSEGV delivery, which is the
    engine behind both of Hemlock's fault-handler duties (lazy linking
    and mapping shared segments on pointer dereference). *)

type t

(** Why an access faulted: the address had no mapping at all, the
    mapping's protection forbade the access, or the page is mapped but
    not materialised ([Not_resident] — resolved kernel-internally by
    {!resolve_pager}, never delivered to user handlers and never billed,
    exactly like COW).  Checked in that order: bounds, then residency,
    then protection. *)
type fault_reason = Unmapped | Protection | Not_resident

exception Fault of { addr : int; access : Prot.access; reason : fault_reason }

(** Whether a mapping is copied or shared across [fork]; private-region
    addresses are overloaded per process, public ones globally unique. *)
type share = Private | Public

type mapping = {
  seg : Segment.t;
  seg_off : int;  (** segment offset backing the mapping's base *)
  prot : Prot.t;  (** logical protection (what {!pp} shows); a COW
                      mapping's {e effective} protection additionally
                      strips write until {!resolve_cow} runs *)
  share : share;
  label : string;  (** human-readable provenance, e.g. a module path *)
  cow : bool;
      (** set by {!clone} on writable private mappings: pages are
          refcount-shared with the other space and the first store must
          fault into {!resolve_cow} *)
  obj : Vm_object.t;
      (** pager-side identity: residency, backing kind, clock state.
          Shared by every mapping of the same segment. *)
}

(** Raised by {!read_cstring} when no NUL terminator appears within the
    64 KB bound; the kernel surfaces it as [EFAULT] at syscall
    boundaries. *)
exception Cstring_unterminated of int

(** Default for {!create}'s [?caching]: [true] unless the
    [HEMLOCK_NO_TLB] switch is on (see {!Hemlock_util.Env.flag}).  The TLB and the
    bulk-copy fast paths are observability-only — simulated costs are
    identical either way; the switch exists so the slow path stays
    testable. *)
val caching_default : bool ref

(** [create ()] makes an empty space.  [~caching:false] disables the
    software TLB for this space (every access takes the interval-map
    slow path). *)
val create : ?caching:bool -> unit -> t

(** Invalidation epoch: bumped by every [map]/[unmap]/[protect].
    Derived caches (e.g. the trace JIT's compiled code) must be
    revalidated when it changes. *)
val epoch : t -> int

(** [map t ~base ~len ~seg ~prot ~share ~label] installs a mapping.
    [base] and [len] must be page-aligned; the range must be unmapped
    user space.  @raise Invalid_argument otherwise.

    [?kind] (default [Vm_object.Pinned]) selects how pages materialise.
    The default keeps raw callers — tests, libraries with no kernel
    around to resolve pager faults — on the seed's eager always-resident
    behaviour; kernel-managed sites opt into [Anonymous] (stack, heap,
    exec images, private module instances) or [File_backed] (shared-file
    mappings, public module instances). *)
val map :
  t ->
  base:int ->
  len:int ->
  seg:Segment.t ->
  ?seg_off:int ->
  ?kind:Vm_object.kind ->
  prot:Prot.t ->
  share:share ->
  label:string ->
  unit ->
  unit

(** [unmap t addr] removes the mapping containing [addr] (no-op if
    none), detaching its {!Vm_object.t}. *)
val unmap : t -> int -> unit

(** [drop_objects t] drops every {!Vm_object.t} attachment (eviction
    stops invalidating this space) and {!Vm_object.forget}s the object
    of every [Private] mapping's segment — the kernel never maps a
    private segment into a second space (fork copies it), so its pager
    state is garbage once this space is dead.  [Public] objects are
    shared and stay.  The mapping table is kept — what process exit
    wants, so a zombie's mappings stay inspectable.  Segment page
    refcounts are deliberately {e not} released (see the rule in
    {!Segment}). *)
val drop_objects : t -> unit

(** [teardown t] = {!drop_objects} plus unmapping everything — the
    deterministic teardown for exec discarding the replaced image. *)
val teardown : t -> unit

(** [protect t addr prot] changes the protection of the whole mapping
    containing [addr].  @raise Not_found if unmapped. *)
val protect : t -> int -> Prot.t -> unit

(** The mapping containing [addr], with its [(lo, hi)] range. *)
val mapping_at : t -> int -> (int * int * mapping) option

(** All mappings in address order. *)
val mappings : t -> (int * int * mapping) list

(** [find_gap t ~lo ~hi ~size] finds a free page-aligned range. *)
val find_gap : t -> lo:int -> hi:int -> size:int -> int option

(** Checked accesses; raise {!Fault}. *)

val load_u8 : t -> int -> int
val load_u32 : t -> int -> int
val store_u8 : t -> int -> int -> unit
val store_u32 : t -> int -> int -> unit

(** Instruction fetch: a 32-bit load requiring execute permission. *)
val fetch : t -> int -> int

(** [exec_view t addr] validates a 4-byte exec access at [addr] exactly
    like {!fetch} (raising the same faults) and returns the mapping
    geometry [(seg, delta, hi)], where [addr' + delta] is the segment
    offset of any [addr'] in the same mapping and [hi] is its exclusive
    bound.  The result is valid until {!epoch} changes.  Used by the
    trace JIT. *)
val exec_view : t -> int -> Segment.t * int * int

(** [data_view t addr access] is the mapping geometry [(seg, delta, hi)]
    behind [addr] when its {e effective} protection allows [access]
    (a COW mapping's stripped write counts as not allowing it), else
    [None].  Unlike the checked accessors it never raises and never
    touches the TLB; the result is valid until {!epoch} changes.  Used
    by the trace JIT to fill its inline load/store caches. *)
val data_view : t -> int -> Prot.access -> (Segment.t * int * int) option

(** [read_bytes t addr len] performs [len] checked byte reads. *)
val read_bytes : t -> int -> int -> Bytes.t

(** [write_bytes t addr b] performs checked byte writes. *)
val write_bytes : t -> int -> Bytes.t -> unit

(** Read a NUL-terminated string (bounded at 64 KB). *)
val read_cstring : t -> int -> string

(** [clone t] implements the memory half of fork: private mappings get
    fresh copied segments, public mappings alias the originals.

    With [Segment.cow_enabled] (the default) the copies share pages by
    reference count, writable private mappings are flagged [cow] in
    {e both} spaces (effective protection loses write, and both TLBs are
    flushed via the epoch), and nothing is billed to [bytes_copied];
    the first store on either side faults into {!resolve_cow}.  With it
    off, eager deep copies billed to [bytes_copied], as before. *)
val clone : t -> t

(** [resolve_cow t addr] is the kernel's half of the COW protocol: on a
    write protection fault at [addr], if the mapping is [cow] and its
    logical protection allows the write, clear the flag (restoring the
    original protection), bump the {!epoch}, bill one [cow_faults], and
    return [true] — the caller retries the faulting access, which
    un-shares pages one by one at the segment layer as it writes.
    Returns [false] for genuine protection faults (deliver SIGSEGV). *)
val resolve_cow : t -> int -> bool

(** [resolve_pager t addr access] is the kernel's half of the demand
    paging protocol: on a [Not_resident] fault, materialise the page
    (evicting a victim first when the RAM budget is full), bill
    [major_faults]/[minor_faults], and return [true] — the caller
    retries the access.  Returns [false] when [addr] is unmapped or the
    mapping is pinned (fall through to COW/SIGSEGV handling). *)
val resolve_pager : t -> int -> Prot.access -> bool

val pp : Format.formatter -> t -> unit
