module Codec = Hemlock_util.Codec
module Stats = Hemlock_util.Stats

type section = Text | Data | Bss

type binding = Local | Global

type symbol = { sym_name : string; sym_section : section; sym_offset : int; sym_binding : binding }

type reloc_kind = Abs32 | Hi16 | Lo16 | Jump26 | Gprel16

type reloc = {
  rel_section : section;
  rel_offset : int;
  rel_kind : reloc_kind;
  rel_symbol : string;
  rel_addend : int;
}

type t = {
  obj_name : string;
  text : Bytes.t;
  data : Bytes.t;
  bss_size : int;
  symbols : symbol list;
  relocs : reloc list;
  uses_gp : bool;
  own_modules : string list;
  own_search_path : string list;
}

let section_to_string = function Text -> "text" | Data -> "data" | Bss -> "bss"

let reloc_kind_to_string = function
  | Abs32 -> "ABS32"
  | Hi16 -> "HI16"
  | Lo16 -> "LO16"
  | Jump26 -> "JUMP26"
  | Gprel16 -> "GPREL16"

let empty ~name =
  {
    obj_name = name;
    text = Bytes.empty;
    data = Bytes.empty;
    bss_size = 0;
    symbols = [];
    relocs = [];
    uses_gp = false;
    own_modules = [];
    own_search_path = [];
  }

let align4 n = (n + 3) land lnot 3

let section_bases t =
  let text_base = 0 in
  let data_base = align4 (Bytes.length t.text) in
  let bss_base = data_base + align4 (Bytes.length t.data) in
  (text_base, data_base, bss_base)

let load_size t =
  let _, _, bss_base = section_bases t in
  bss_base + align4 t.bss_size

(* ----- hashed export index ------------------------------------------------

   A GNU-hash-style index over the symbol table: a small bloom filter in
   front of hash buckets, each bucket listing its symbols in declaration
   order so the hashed lookup returns exactly the symbol the linear scan
   would (first match wins; a Local can shadow a later Global).  Indexes
   are memoized per physical symbol list, so `{obj with ...}` copies
   share them and a re-parsed object builds its own. *)

let sym_hash_enabled = ref (not (Hemlock_util.Env.flag "HEMLOCK_NO_SYMHASH"))

type index = {
  ix_mask : int;  (* bucket count - 1 (power of two) *)
  ix_bloom : int array;  (* 62 usable bits per word *)
  ix_buckets : symbol list array;
}

let hash_name name =
  (* djb2, masked to 32 bits: cheap and stable across runs. *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0xFFFF_FFFF) name;
  !h

let bloom_bits ix h =
  let nbits = Array.length ix.ix_bloom * 62 in
  (h mod nbits, (h lsr 16) mod nbits)

let bloom_set ix h =
  let b1, b2 = bloom_bits ix h in
  ix.ix_bloom.(b1 / 62) <- ix.ix_bloom.(b1 / 62) lor (1 lsl (b1 mod 62));
  ix.ix_bloom.(b2 / 62) <- ix.ix_bloom.(b2 / 62) lor (1 lsl (b2 mod 62))

let bloom_mem ix h =
  let b1, b2 = bloom_bits ix h in
  ix.ix_bloom.(b1 / 62) land (1 lsl (b1 mod 62)) <> 0
  && ix.ix_bloom.(b2 / 62) land (1 lsl (b2 mod 62)) <> 0

let build_index symbols =
  let n = List.length symbols in
  let rec pow2 v = if v >= n || v >= 1024 then v else pow2 (v * 2) in
  let buckets = pow2 8 in
  let ix =
    {
      ix_mask = buckets - 1;
      ix_bloom = Array.make (max 1 ((n / 16) + 1)) 0;
      ix_buckets = Array.make buckets [];
    }
  in
  (* Fill back-to-front so each bucket ends up in declaration order. *)
  List.iter
    (fun s ->
      let h = hash_name s.sym_name in
      bloom_set ix h;
      let b = h land ix.ix_mask in
      ix.ix_buckets.(b) <- s :: ix.ix_buckets.(b))
    (List.rev symbols);
  ix

(* Memo: obj_name -> (symbols-list == key, index) pairs.  Physical
   equality of the immutable symbol list is the validity proof; the
   table is bounded and cleared wholesale when it grows too large. *)
type index_memo_state = {
  memo : (string, (symbol list * index) list) Hashtbl.t;
  mutable entries : int;
}

(* per-domain: memoisation only; a worker domain rebuilds what it
   misses *)
let index_memo_key : index_memo_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { memo = Hashtbl.create 64; entries = 0 })

let clear_index_memo () =
  let im = Domain.DLS.get index_memo_key in
  Hashtbl.reset im.memo;
  im.entries <- 0

let index_of t =
  let im = Domain.DLS.get index_memo_key in
  let index_memo = im.memo in
  let chain = Option.value ~default:[] (Hashtbl.find_opt index_memo t.obj_name) in
  match List.find_opt (fun (syms, _) -> syms == t.symbols) chain with
  | Some (_, ix) -> ix
  | None ->
    if im.entries > 4096 then begin
      Hashtbl.reset index_memo;
      im.entries <- 0
    end;
    let ix = build_index t.symbols in
    Hashtbl.replace index_memo t.obj_name
      ((t.symbols, ix) :: Option.value ~default:[] (Hashtbl.find_opt index_memo t.obj_name));
    im.entries <- im.entries + 1;
    ix

let find_symbol_linear t name =
  List.find_opt (fun s -> String.equal s.sym_name name) t.symbols

let find_symbol t name =
  if not !sym_hash_enabled then find_symbol_linear t name
  else begin
    let ix = index_of t in
    let h = hash_name name in
    let found =
      if bloom_mem ix h then
        List.find_opt
          (fun s -> String.equal s.sym_name name)
          ix.ix_buckets.(h land ix.ix_mask)
      else None
    in
    (match found with
    | Some _ -> (Stats.cur ()).sym_hash_hits <- (Stats.cur ()).sym_hash_hits + 1
    | None -> (Stats.cur ()).sym_hash_misses <- (Stats.cur ()).sym_hash_misses + 1);
    found
  end

let exports t = List.filter (fun s -> s.sym_binding = Global) t.symbols

let undefined t =
  let defined = List.map (fun s -> s.sym_name) t.symbols in
  let referenced = List.map (fun r -> r.rel_symbol) t.relocs in
  List.sort_uniq String.compare
    (List.filter (fun n -> not (List.mem n defined)) referenced)

(* Binary encoding *)

let magic = "HOBJ"

(* Version 2 appends the persisted export index after the v1 payload.
   Emission is opt-in so existing byte-exact expectations on v1 objects
   hold; any parser that predates v2 would reject the new magic rather
   than misread the trailer. *)
let magic_v2 = "HOB2"

let section_code = function Text -> 0 | Data -> 1 | Bss -> 2

let section_of_code = function
  | 0 -> Text
  | 1 -> Data
  | 2 -> Bss
  | n -> failwith (Printf.sprintf "Objfile.parse: bad section code %d" n)

let kind_code = function Abs32 -> 0 | Hi16 -> 1 | Lo16 -> 2 | Jump26 -> 3 | Gprel16 -> 4

let kind_of_code = function
  | 0 -> Abs32
  | 1 -> Hi16
  | 2 -> Lo16
  | 3 -> Jump26
  | 4 -> Gprel16
  | n -> failwith (Printf.sprintf "Objfile.parse: bad reloc kind %d" n)

let serialize ?(with_index = false) t =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) (if with_index then magic_v2 else magic);
  Codec.Writer.str w t.obj_name;
  Codec.Writer.u8 w (if t.uses_gp then 1 else 0);
  Codec.Writer.u32 w (Bytes.length t.text);
  Codec.Writer.bytes w t.text;
  Codec.Writer.u32 w (Bytes.length t.data);
  Codec.Writer.bytes w t.data;
  Codec.Writer.u32 w t.bss_size;
  Codec.Writer.u32 w (List.length t.symbols);
  List.iter
    (fun s ->
      Codec.Writer.str w s.sym_name;
      Codec.Writer.u8 w (section_code s.sym_section);
      Codec.Writer.u32 w s.sym_offset;
      Codec.Writer.u8 w (match s.sym_binding with Local -> 0 | Global -> 1))
    t.symbols;
  Codec.Writer.u32 w (List.length t.relocs);
  List.iter
    (fun r ->
      Codec.Writer.u8 w (section_code r.rel_section);
      Codec.Writer.u32 w r.rel_offset;
      Codec.Writer.u8 w (kind_code r.rel_kind);
      Codec.Writer.str w r.rel_symbol;
      Codec.Writer.u32 w (r.rel_addend land 0xFFFF_FFFF))
    t.relocs;
  Codec.Writer.u32 w (List.length t.own_modules);
  List.iter (Codec.Writer.str w) t.own_modules;
  Codec.Writer.u32 w (List.length t.own_search_path);
  List.iter (Codec.Writer.str w) t.own_search_path;
  if with_index then begin
    (* Persisted index: bucket count, bloom words, then each bucket as a
       count plus symbol-table positions (declaration order). *)
    let ix = build_index t.symbols in
    let pos = Hashtbl.create (List.length t.symbols) in
    List.iteri (fun i s -> if not (Hashtbl.mem pos s) then Hashtbl.add pos s i) t.symbols;
    Codec.Writer.u32 w (ix.ix_mask + 1);
    Codec.Writer.u32 w (Array.length ix.ix_bloom);
    Array.iter
      (fun word ->
        Codec.Writer.u32 w (word land 0xFFFF_FFFF);
        Codec.Writer.u32 w ((word lsr 32) land 0x3FFF_FFFF))
      ix.ix_bloom;
    Array.iter
      (fun bucket ->
        Codec.Writer.u32 w (List.length bucket);
        List.iter (fun s -> Codec.Writer.u32 w (Hashtbl.find pos s)) bucket)
      ix.ix_buckets
  end;
  Codec.Writer.contents w

let parse bytes =
  let r = Codec.Reader.create bytes in
  let m = Bytes.to_string (Codec.Reader.bytes r 4) in
  let v2 = String.equal m magic_v2 in
  if not (String.equal m magic || v2) then failwith "Objfile.parse: bad magic";
  let obj_name = Codec.Reader.str r in
  let uses_gp = Codec.Reader.u8 r = 1 in
  let text = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let data = Codec.Reader.bytes r (Codec.Reader.u32 r) in
  let bss_size = Codec.Reader.u32 r in
  let nsyms = Codec.Reader.u32 r in
  let read_symbol () =
    let sym_name = Codec.Reader.str r in
    let sym_section = section_of_code (Codec.Reader.u8 r) in
    let sym_offset = Codec.Reader.u32 r in
    let sym_binding = if Codec.Reader.u8 r = 1 then Global else Local in
    { sym_name; sym_section; sym_offset; sym_binding }
  in
  let symbols = List.init nsyms (fun _ -> read_symbol ()) in
  let nrels = Codec.Reader.u32 r in
  let read_reloc () =
    let rel_section = section_of_code (Codec.Reader.u8 r) in
    let rel_offset = Codec.Reader.u32 r in
    let rel_kind = kind_of_code (Codec.Reader.u8 r) in
    let rel_symbol = Codec.Reader.str r in
    let rel_addend = Codec.sext32 (Codec.Reader.u32 r) in
    { rel_section; rel_offset; rel_kind; rel_symbol; rel_addend }
  in
  let relocs = List.init nrels (fun _ -> read_reloc ()) in
  let own_modules = List.init (Codec.Reader.u32 r) (fun _ -> Codec.Reader.str r) in
  let own_search_path = List.init (Codec.Reader.u32 r) (fun _ -> Codec.Reader.str r) in
  let t =
    { obj_name; text; data; bss_size; symbols; relocs; uses_gp; own_modules; own_search_path }
  in
  if v2 then begin
    (* Reload the persisted index instead of rebuilding it, validating
       every symbol position so a corrupt trailer cannot alias. *)
    let syms = Array.of_list symbols in
    let buckets = Codec.Reader.u32 r in
    if buckets < 1 || buckets > 65536 || buckets land (buckets - 1) <> 0 then
      failwith "Objfile.parse: bad index bucket count";
    (* [build_index] emits (nsyms/16)+1 bloom words; anything outside
       [1, nsyms+1] is a corrupt trailer.  In particular 0 must be
       rejected here: it would parse fine and then divide by zero on the
       first lookup, escaping the parse-time Failure contract. *)
    let nwords = Codec.Reader.u32 r in
    if nwords < 1 || nwords > nsyms + 1 then
      failwith "Objfile.parse: bad index bloom word count";
    let bloom =
      Array.init nwords (fun _ ->
          let lo = Codec.Reader.u32 r in
          let hi = Codec.Reader.u32 r in
          lo lor (hi lsl 32))
    in
    let read_sym () =
      let i = Codec.Reader.u32 r in
      if i >= Array.length syms then failwith "Objfile.parse: bad index entry";
      syms.(i)
    in
    let ix =
      {
        ix_mask = buckets - 1;
        ix_bloom = bloom;
        ix_buckets =
          Array.init buckets (fun _ ->
              List.init (Codec.Reader.u32 r) (fun _ -> read_sym ()));
      }
    in
    let im = Domain.DLS.get index_memo_key in
    Hashtbl.replace im.memo t.obj_name
      ((t.symbols, ix) :: Option.value ~default:[] (Hashtbl.find_opt im.memo t.obj_name));
    im.entries <- im.entries + 1
  end;
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>object %s%s@,text %d bytes, data %d bytes, bss %d bytes@,"
    t.obj_name (if t.uses_gp then " (uses gp)" else "")
    (Bytes.length t.text) (Bytes.length t.data) t.bss_size;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-6s %s+0x%x %s@,"
        (match s.sym_binding with Global -> "global" | Local -> "local")
        (section_to_string s.sym_section) s.sym_offset s.sym_name)
    t.symbols;
  List.iter
    (fun r ->
      Format.fprintf ppf "  reloc %s+0x%x %s -> %s%+d@,"
        (section_to_string r.rel_section) r.rel_offset
        (reloc_kind_to_string r.rel_kind) r.rel_symbol r.rel_addend)
    t.relocs;
  Format.fprintf ppf "@]"
