(** Memoized link plans and parse caches — the Hemlock analogue of
    "stable linking": segments are linked into many programs repeatedly,
    so the second process to exec a program replays the recorded
    resolution outcome instead of re-walking scopes.

    Coherence contract (all host-side; the simulated cost model is
    unaffected):
    - the template decode cache is keyed by the backing segment's
      ([Segment.id], [Segment.version]) — a rewritten file gets a new
      version and so a fresh decode;
    - the plan store is validated against {!Hemlock_sfs.Fs.generation}
      and cleared wholesale on any FS namespace/whole-file mutation;
    - every plan dependency records the base address it was placed at
      {e and} the content identity (segment id, version) of the template
      it was decoded from, and replay verifies both, rejecting the plan
      on mismatch — so a template rewritten in place through a mapping
      (invisible to [Fs.generation]) can never be served a stale plan;
    - the caller additionally keys each plan on a digest of the
      already-instantiated module set, since recorded addresses may
      point into modules that were instantiated by {e earlier} regions
      and therefore appear in no dependency entry;
    - replay re-performs instantiations through the ordinary path, so
      reads, mappings and lock acquisitions (and their counters) recur
      exactly; only symbol scope walks are replaced by the recorded
      dictionary, fed to the same relocation engine. *)

(** Kill switch (set from [HEMLOCK_NO_PLANCACHE] at start-up). *)
val enabled : bool ref

(** [parse_obj ~seg bytes] decodes a template, memoized against [seg]'s
    identity and version.  [bytes] must be [seg]'s current contents. *)
val parse_obj : seg:Hemlock_vm.Segment.t -> Bytes.t -> Hemlock_obj.Objfile.t

(** Drop the calling domain's template (HOB2) decode memo — the piece
    of reboot teardown stable linking claims and re-warms from
    persisted symbol-index files. *)
val clear_obj_cache : unit -> unit

(** [seed_obj ~src obj] pre-warms the template decode cache with a
    template deserialized from a stable-link symbol-index file, keyed by
    the backing segment identity [src] = (id, version) it was verified
    against.  No-op when the plan cache is disabled. *)
val seed_obj : src:int * int -> Hemlock_obj.Objfile.t -> unit

(** One instantiation performed during a recorded region. *)
type 'scope dep = {
  dep_located : string;
  dep_public : bool;
  dep_base : int;
  dep_src : int * int;
      (** template content identity at record time (see
          {!Hemlock_linker.Modinst.t.inst_src}) *)
  dep_parent : 'scope;
}

type 'scope plan = {
  plan_deps : 'scope dep list;  (** in cold-path chronological order *)
  plan_addrs : (string, int) Hashtbl.t;  (** resolved symbol addresses *)
}

type 'scope store

val create_store : unit -> 'scope store

(** [lookup store ~fs key] returns a live plan, clearing the store first
    if [fs] has mutated since the plans were recorded. *)
val lookup : 'scope store -> fs:Hemlock_sfs.Fs.t -> string -> 'scope plan option

val record : 'scope store -> fs:Hemlock_sfs.Fs.t -> string -> 'scope plan -> unit

(** All live (key, plan) pairs, sorted by key — the stable-link sync
    walks this to persist the store.  Validates against [fs] first, so
    only plans the store would actually serve are returned.  Empty when
    the plan cache is disabled. *)
val entries : 'scope store -> fs:Hemlock_sfs.Fs.t -> (string * 'scope plan) list

(** Drop every cached plan and forget the generation (reboot). *)
val reset_store : 'scope store -> unit

(** Bump the plan observability counters. *)
val hit : unit -> unit

val miss : unit -> unit
