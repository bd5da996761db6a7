(** Pager-side identity of a mapped {!Segment}: which pages are
    resident, how first touches materialise ({!kind}), and when resident
    pages are reclaimed under a bounded simulated RAM.

    The segment stays the page {e store}; a VmObject is pure residency
    accounting shared by every mapping of that segment (page-cache
    semantics — the registry is keyed by segment id).  Eviction never
    discards contents: it clears the residency bit, pushes dirty
    file-backed pages through the owning file system's journalled
    writeback barrier, and invalidates every attached address space so
    the next touch re-faults through the slow path.

    All pager work is kernel-internal, exactly like COW: pager faults
    are never delivered to user handlers, never billed to
    [Stats.faults], and consume no fuel — the golden transcripts are
    byte-identical with the pager on, off ([HEMLOCK_NO_PAGER]), or
    squeezed ([HEMLOCK_RAM_PAGES]). *)

type kind =
  | Anonymous  (** no backing identity: stacks, heaps, private images *)
  | Pinned  (** always resident; never faults, never evicted.  The
                default for raw {!Address_space.map} callers, which may
                have no kernel around to resolve pager faults. *)
  | File_backed of { path : string; writeback : page:int -> unit }
      (** backed by a shared-partition file; [writeback] is the owning
          file system's journalled durability barrier for one page
          (see [Fs.page_writeback]) *)

type t

(** Kill switch: [false] (set [HEMLOCK_NO_PAGER]) restores eager
    whole-segment population — everything resident, nothing evicted. *)
val enabled : bool ref

(** Simulated RAM in pages ([None] = unbounded, the default; set
    [HEMLOCK_RAM_PAGES], where [0] also means unbounded).  Values are clamped to {!min_ram_pages} when
    consumed.  Change it only around {!reset}. *)
val ram_pages : int option ref

(** Floor for {!ram_pages}: below this the clock would thrash the
    handful of pages one instruction needs simultaneously live. *)
val min_ram_pages : int

(** [get_or_create seg kind] is the object for [seg], creating it with
    [kind] on first sight.  A [Pinned] request {e promotes} an existing
    pageable object (its frames leave the clock uncounted): a raw
    mapper's eager expectations win over demand paging. *)
val get_or_create : Segment.t -> kind -> t

(** Whether the pager manages this object at all ([enabled] and not
    pinned). *)
val pageable : t -> bool

(** Whether the object's kind is [Pinned] (independent of [enabled]) —
    the kind-inheritance test for fork's private copies. *)
val is_pinned : t -> bool

(** [resident t off] — is the page holding byte offset [off] resident?
    Always true for non-pageable objects. *)
val resident : t -> int -> bool

(** [touch t off ~write] marks the page referenced (clock second
    chance) and, for [write], dirty.  No-op if not pageable. *)
val touch : t -> int -> write:bool -> unit

(** [materialise t off ~write] makes the page holding [off] resident,
    billing [major_faults] (file-backed content to read) or
    [minor_faults] (zero-fill / in-memory) and evicting a victim first
    when the {!ram_pages} budget is full.  Idempotent on resident
    pages (degrades to {!touch}). *)
val materialise : t -> int -> write:bool -> unit

(** [attach t ~uid invalidate] registers an address space (by its
    unique id) mapping this object; [invalidate] is called — bumping
    the space's epoch — whenever one of the object's pages is evicted.
    Multiple mappings by one space are refcounted. *)
val attach : t -> uid:int -> (unit -> unit) -> unit

val detach : t -> uid:int -> unit

(** Drop [seg]'s object: frames leave the clock uncounted, residency
    clears, the registry entry disappears.  For teardown paths that
    know the segment is discarded: a dead or replaced address space's
    private mappings ({!Address_space.drop_objects}) and the linker
    unwinding a private instance. *)
val forget : Segment.t -> unit

(** Objects in this domain's registry: a clock-free measure of the
    pager state a run keeps alive. *)
val registered : unit -> int

(** High-water mark of [Stats.resident_pages] since the last {!reset}. *)
val peak_resident : unit -> int

(** Forget {e all} pager state: registry, clock, gauge, peak.  Only
    sound when no previously-mapped segment will be touched again —
    the bench harness calls it between isolated kernel boots. *)
val reset : unit -> unit
