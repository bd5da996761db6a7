module Fs = Hemlock_sfs.Fs
module Segment = Hemlock_vm.Segment
module Objfile = Hemlock_obj.Objfile
module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats
module Fault = Hemlock_util.Fault

(* Stable linking: link plans and symbol indexes persisted into the
   shared partition itself, under [/shared/.stable], so the caches the
   kernel loses at reboot can be rebuilt from files instead of from
   cold scope walks.

   Persistence discipline:
   - files are {e content-addressed}: the file name carries a digest of
     the plan key (resp. the template identity), so an existing file
     already holds exactly the bytes we would write.  Persisting is
     therefore always either a skip or a {e fresh-file} write — which
     the [Fs] intent journal makes all-or-nothing — and never an
     unlink-then-rewrite with a torn window in between;
   - every file embeds a digest of its own body; loads verify it (plus
     magic, version and the embedded key) and {e reap} the file on any
     mismatch, so one corrupt or stale file costs exactly one failed
     load;
   - loads go through [Fs.segment_of]/[Segment.contents], not
     [Fs.read_file]: like every other host-side cache they must be
     invisible to the simulated cost model.  Only the persist writes
     are billed, at the explicit sync point. *)

let enabled = ref (not (Hemlock_util.Env.flag "HEMLOCK_NO_STABLELINK"))

let dir = "/shared/.stable"

let plan_magic = "HSPL"
let obj_magic = "HSOB"
let version = 1

let plan_path key = dir ^ "/plan-" ^ Digest.to_hex (Digest.string key)

let obj_path ~located ~src:(sid, sver) =
  dir
  ^ "/obj-"
  ^ Digest.to_hex (Digest.string (Printf.sprintf "%s\x01%d\x01%d" located sid sver))

let bump_persists () = (Stats.cur ()).stable_persists <- (Stats.cur ()).stable_persists + 1
let bump_loads () = (Stats.cur ()).stable_loads <- (Stats.cur ()).stable_loads + 1
let bump_rejects () = (Stats.cur ()).stable_rejects <- (Stats.cur ()).stable_rejects + 1

(* ----- wire format --------------------------------------------------------

   header: magic(4) | version u8 | md5(body) raw 16 | body

   plan body:   str key
                u32 ndeps { str located | u8 public | u32 base
                            | i32 src_id | i32 src_ver | scope }
                u32 naddrs { str sym | u32 addr }   (sorted by sym)
   scope:       str label | u16 nmodules strs | u16 nsearch strs
                | u8 has_parent [ scope ]
   obj body:    str located | i32 src_id | i32 src_ver
                | u32 len | HOB2 bytes *)

(* [Segment.version] can be -1-free in practice, but [Modinst.inst_src]
   is (-1, -1) for objects that never came from a file; keep the
   encoding total over ints that fit 32 bits signed. *)
let w_i32 w v = Codec.Writer.u32 w (v land 0xFFFF_FFFF)

let r_i32 r =
  let v = Codec.Reader.u32 r in
  if v > 0x7FFF_FFFF then v - 0x1_0000_0000 else v

let rec w_scope w s =
  Codec.Writer.str w s.Modinst.sc_label;
  Codec.Writer.u16 w (List.length s.Modinst.sc_modules);
  List.iter (Codec.Writer.str w) s.Modinst.sc_modules;
  Codec.Writer.u16 w (List.length s.Modinst.sc_search);
  List.iter (Codec.Writer.str w) s.Modinst.sc_search;
  match s.Modinst.sc_parent with
  | Some p ->
    Codec.Writer.u8 w 1;
    w_scope w p
  | None -> Codec.Writer.u8 w 0

let rec r_scope r =
  let sc_label = Codec.Reader.str r in
  let n = Codec.Reader.u16 r in
  let ms = ref [] in
  for _ = 1 to n do
    ms := Codec.Reader.str r :: !ms
  done;
  let n = Codec.Reader.u16 r in
  let ds = ref [] in
  for _ = 1 to n do
    ds := Codec.Reader.str r :: !ds
  done;
  let sc_parent = if Codec.Reader.u8 r = 1 then Some (r_scope r) else None in
  {
    Modinst.sc_label;
    sc_modules = List.rev !ms;
    sc_search = List.rev !ds;
    sc_parent;
  }

let seal magic body =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.bytes w (Bytes.of_string (Digest.bytes body));
  Codec.Writer.bytes w body;
  Codec.Writer.contents w

(* Strip and verify the header; [Failure] on anything unexpected. *)
let unseal magic bytes =
  let r = Codec.Reader.create bytes in
  let m = Bytes.to_string (Codec.Reader.bytes r 4) in
  if not (String.equal m magic) then failwith "stable: bad magic";
  if Codec.Reader.u8 r <> version then failwith "stable: bad version";
  let digest = Bytes.to_string (Codec.Reader.bytes r 16) in
  let body = Codec.Reader.bytes r (Bytes.length bytes - Codec.Reader.pos r) in
  if not (String.equal digest (Digest.bytes body)) then failwith "stable: bad digest";
  body

let encode_plan ~key (plan : Modinst.scope Link_plan.plan) =
  let w = Codec.Writer.create () in
  Codec.Writer.str w key;
  Codec.Writer.u32 w (List.length plan.Link_plan.plan_deps);
  List.iter
    (fun d ->
      Codec.Writer.str w d.Link_plan.dep_located;
      Codec.Writer.u8 w (if d.Link_plan.dep_public then 1 else 0);
      Codec.Writer.u32 w d.Link_plan.dep_base;
      let sid, sver = d.Link_plan.dep_src in
      w_i32 w sid;
      w_i32 w sver;
      w_scope w d.Link_plan.dep_parent)
    plan.Link_plan.plan_deps;
  let addrs =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun s a acc -> (s, a) :: acc) plan.Link_plan.plan_addrs [])
  in
  Codec.Writer.u32 w (List.length addrs);
  List.iter
    (fun (s, a) ->
      Codec.Writer.str w s;
      Codec.Writer.u32 w a)
    addrs;
  seal plan_magic (Codec.Writer.contents w)

let decode_plan bytes =
  let r = Codec.Reader.create (unseal plan_magic bytes) in
  let key = Codec.Reader.str r in
  let ndeps = Codec.Reader.u32 r in
  let deps = ref [] in
  for _ = 1 to ndeps do
    let dep_located = Codec.Reader.str r in
    let dep_public = Codec.Reader.u8 r = 1 in
    let dep_base = Codec.Reader.u32 r in
    let sid = r_i32 r in
    let sver = r_i32 r in
    let dep_parent = r_scope r in
    deps :=
      { Link_plan.dep_located; dep_public; dep_base; dep_src = (sid, sver); dep_parent }
      :: !deps
  done;
  let naddrs = Codec.Reader.u32 r in
  let addrs = Hashtbl.create (max 16 naddrs) in
  for _ = 1 to naddrs do
    let s = Codec.Reader.str r in
    let a = Codec.Reader.u32 r in
    Hashtbl.replace addrs s a
  done;
  (key, { Link_plan.plan_deps = List.rev !deps; plan_addrs = addrs })

let encode_obj ~located ~src:(sid, sver) obj =
  let w = Codec.Writer.create () in
  Codec.Writer.str w located;
  w_i32 w sid;
  w_i32 w sver;
  let payload = Objfile.serialize ~with_index:true obj in
  Codec.Writer.u32 w (Bytes.length payload);
  Codec.Writer.bytes w payload;
  seal obj_magic (Codec.Writer.contents w)

let decode_obj bytes =
  let r = Codec.Reader.create (unseal obj_magic bytes) in
  let located = Codec.Reader.str r in
  let sid = r_i32 r in
  let sver = r_i32 r in
  let payload = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  (located, (sid, sver), payload)

(* ----- persisting ---------------------------------------------------------- *)

let ensure_dir fs = if not (Fs.exists fs dir) then Fs.mkdir fs dir

(* The one write point.  Content addressing means an existing file is
   already the file we want; a missing file gets a fresh journalled
   write, which [Fs.fsck] rolls back wholesale after a crash — there is
   no partially-persisted state a recovery can observe.  Raises
   through: callers decide which failures degrade to "not persisted". *)
let persist_bytes fs ~path bytes =
  Fault.hit "fs.stable";
  if not (Fs.exists fs path) then Fs.write_file fs path bytes

(* A too-long key cannot use the u16 string encoding; plans are keyed
   by digested program identities in practice, so just skip such. *)
let persistable_key key = String.length key <= 0xFFFF

let persist_plan fs ~key plan =
  if not (persistable_key key) then false
  else begin
    let path = plan_path key in
    if Fs.exists fs path then true
    else
      match persist_bytes fs ~path (encode_plan ~key plan) with
      | () ->
        bump_persists ();
        true
      | exception Fault.Injected _ -> false
      | exception Fs.Error _ -> false
  end

let persist_obj fs ~located ~src obj =
  let path = obj_path ~located ~src in
  if Fs.exists fs path then true
  else
    match persist_bytes fs ~path (encode_obj ~located ~src obj) with
    | () ->
      bump_persists ();
      true
    | exception Fault.Injected _ -> false
    | exception Fs.Error _ -> false

(* ----- loading -------------------------------------------------------------- *)

let reap fs path =
  (try Fs.unlink fs path with Fs.Error _ | Fault.Injected _ -> ());
  bump_rejects ()

let reject fs ~key = reap fs (plan_path key)

(* Loading is split in two so the decode/verify work runs once per
   boot, not once per planned region: [load_plans] is the one-pass
   directory sweep that decodes and digest-verifies every plan file
   (reaping the ones that no longer parse), and the caller serves
   lookups from the result, counting consumption with [note_load]. *)
let note_load = bump_loads

let load_plans fs =
  match Fs.readdir fs dir with
  | exception Fs.Error _ -> []
  | names ->
    List.fold_left
      (fun acc name ->
        if String.length name >= 5 && String.sub name 0 5 = "plan-" then begin
          let path = dir ^ "/" ^ name in
          match Fs.segment_of fs path with
          | exception Fs.Error _ -> acc
          | seg -> (
            match decode_plan (Segment.contents seg) with
            | key, plan -> (key, plan) :: acc
            | exception Failure _ ->
              reap fs path;
              acc)
        end
        else acc)
      [] names

let load_plan fs ~key =
  match Fs.segment_of fs (plan_path key) with
  | exception Fs.Error _ -> None
  | seg -> (
    match decode_plan (Segment.contents seg) with
    | stored_key, plan when String.equal stored_key key ->
      bump_loads ();
      Some plan
    | _ ->
      reap fs (plan_path key);
      None
    | exception Failure _ ->
      reap fs (plan_path key);
      None)

(* Seed the (host-side) template decode and export-index caches from
   every persisted symbol index whose backing template still has the
   recorded content identity.  Parsing the embedded HOB2 installs the
   export index in the per-domain memo keyed by the parsed object's own
   symbol list, and [Link_plan.seed_obj] makes that parsed object the
   one future decodes of the template return — so both caches are warm
   for exactly the object replay will use. *)
let seed_indexes fs =
  match Fs.readdir fs dir with
  | exception Fs.Error _ -> ()
  | names ->
    List.iter
      (fun name ->
        if String.length name >= 4 && String.sub name 0 4 = "obj-" then begin
          let path = dir ^ "/" ^ name in
          match Fs.segment_of fs path with
          | exception Fs.Error _ -> ()
          | seg -> (
            match decode_obj (Segment.contents seg) with
            | exception Failure _ -> reap fs path
            | located, (sid, sver), payload -> (
              let live =
                match Fs.segment_of fs located with
                | tseg -> Segment.id tseg = sid && Segment.version tseg = sver
                | exception Fs.Error _ -> false
              in
              if not live then reap fs path
              else
                match Objfile.parse payload with
                | obj ->
                  Link_plan.seed_obj ~src:(sid, sver) obj;
                  bump_loads ()
                | exception Failure _ -> reap fs path))
        end)
      names

(* ----- hooks for the crash sweep and the janitor ----------------------------- *)

(* A deterministic plan blob for [key] — what the crash sweep writes so
   its oracle can predict the exact post-recovery file contents. *)
let raw_blob ~key =
  let addrs = Hashtbl.create 1 in
  Hashtbl.replace addrs "k" (String.length key);
  encode_plan ~key { Link_plan.plan_deps = []; plan_addrs = addrs }

let persist_raw fs ~key =
  ensure_dir fs;
  persist_bytes fs ~path:(plan_path key) (raw_blob ~key)

let valid_segment seg =
  match
    let bytes = Segment.contents seg in
    if Bytes.length bytes >= 4 && Bytes.to_string (Bytes.sub bytes 0 4) = obj_magic then
      ignore (decode_obj bytes)
    else ignore (decode_plan bytes)
  with
  | () -> true
  | exception _ -> false
