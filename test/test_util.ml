open Harness
module Interval_map = Hemlock_util.Interval_map
module Codec = Hemlock_util.Codec
module Prng = Hemlock_util.Prng
module Stats = Hemlock_util.Stats
module Env = Hemlock_util.Env

(* ----- interval map ----- *)

let im_basic () =
  let m = Interval_map.empty in
  check_bool "empty" true (Interval_map.is_empty m);
  let m = Interval_map.add ~lo:10 ~hi:20 "a" m in
  let m = Interval_map.add ~lo:30 ~hi:40 "b" m in
  check_int "cardinal" 2 (Interval_map.cardinal m);
  (match Interval_map.find 15 m with
  | Some (10, 20, "a") -> ()
  | _ -> Alcotest.fail "find 15");
  check_bool "miss below" true (Interval_map.find 9 m = None);
  check_bool "miss between" true (Interval_map.find 25 m = None);
  check_bool "hi exclusive" true (Interval_map.find 20 m = None);
  check_bool "lo inclusive" true (Interval_map.find 30 m <> None)

let im_overlap () =
  let m = Interval_map.add ~lo:10 ~hi:20 () Interval_map.empty in
  check_bool "overlaps inside" true (Interval_map.overlaps ~lo:15 ~hi:16 m);
  check_bool "overlaps spanning" true (Interval_map.overlaps ~lo:0 ~hi:100 m);
  check_bool "overlaps left edge" true (Interval_map.overlaps ~lo:5 ~hi:11 m);
  check_bool "abuts left" false (Interval_map.overlaps ~lo:0 ~hi:10 m);
  check_bool "abuts right" false (Interval_map.overlaps ~lo:20 ~hi:30 m);
  Alcotest.check_raises "add overlap rejected"
    (Invalid_argument "Interval_map.add: overlap") (fun () ->
      ignore (Interval_map.add ~lo:19 ~hi:25 () m));
  Alcotest.check_raises "empty interval rejected"
    (Invalid_argument "Interval_map.add: empty interval") (fun () ->
      ignore (Interval_map.add ~lo:5 ~hi:5 () m))

let im_remove_update () =
  let m = Interval_map.add ~lo:0 ~hi:8 1 Interval_map.empty in
  let m = Interval_map.add ~lo:8 ~hi:16 2 m in
  let m = Interval_map.remove 3 m in
  check_bool "removed" true (Interval_map.find 3 m = None);
  check_bool "other kept" true (Interval_map.find 8 m <> None);
  let m = Interval_map.update 9 (fun v -> v * 10) m in
  (match Interval_map.find 9 m with
  | Some (_, _, 20) -> ()
  | _ -> Alcotest.fail "update");
  check_bool "remove miss is noop" true
    (Interval_map.cardinal (Interval_map.remove 100 m) = 1)

let im_first_gap () =
  let m = Interval_map.add ~lo:10 ~hi:20 () Interval_map.empty in
  let m = Interval_map.add ~lo:30 ~hi:40 () m in
  check_bool "gap before" true (Interval_map.first_gap ~lo:0 ~hi:100 ~size:10 m = Some 0);
  check_bool "gap between" true (Interval_map.first_gap ~lo:10 ~hi:100 ~size:10 m = Some 20);
  check_bool "gap after" true (Interval_map.first_gap ~lo:10 ~hi:100 ~size:15 m = Some 40);
  check_bool "no gap" true (Interval_map.first_gap ~lo:10 ~hi:41 ~size:15 m = None);
  check_bool "exact fit" true (Interval_map.first_gap ~lo:20 ~hi:30 ~size:10 m = Some 20)

let im_to_list_sorted () =
  let m =
    List.fold_left
      (fun m (lo, hi) -> Interval_map.add ~lo ~hi () m)
      Interval_map.empty
      [ (50, 60); (10, 20); (30, 40) ]
  in
  let los = List.map (fun (lo, _, _) -> lo) (Interval_map.to_list m) in
  Alcotest.(check (list int)) "sorted" [ 10; 30; 50 ] los

(* Property: after adding disjoint intervals, every point inside an
   interval finds it, points outside find nothing. *)
let im_prop_stabbing =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 20) (pair (int_range 0 100) (int_range 1 10)))
  in
  prop "interval_map: stabbing queries agree with a naive model" gen (fun raw ->
      (* Build disjoint intervals by skipping overlaps, as a model. *)
      let add (m, model) (lo, len) =
        let hi = lo + len in
        if Interval_map.overlaps ~lo ~hi m then (m, model)
        else (Interval_map.add ~lo ~hi (lo, hi) m, (lo, hi) :: model)
      in
      let m, model = List.fold_left add (Interval_map.empty, []) raw in
      List.for_all
        (fun p ->
          let expect = List.find_opt (fun (lo, hi) -> p >= lo && p < hi) model in
          match (Interval_map.find p m, expect) with
          | Some (lo, hi, _), Some (lo', hi') -> lo = lo' && hi = hi'
          | None, None -> true
          | Some _, None | None, Some _ -> false)
        (List.init 120 Fun.id))

(* ----- codec ----- *)

let codec_scalars () =
  let b = Bytes.make 8 '\000' in
  Codec.set_u32 b 0 0xDEADBEEF;
  check_int "u32 roundtrip" 0xDEADBEEF (Codec.get_u32 b 0);
  Codec.set_u16 b 4 0xBEEF;
  check_int "u16 roundtrip" 0xBEEF (Codec.get_u16 b 4);
  check_int "little endian" 0xEF (Codec.get_u8 b 0);
  check_int "sext16 positive" 5 (Codec.sext16 5);
  check_int "sext16 negative" (-1) (Codec.sext16 0xFFFF);
  check_int "sext32 negative" (-1) (Codec.sext32 0xFFFF_FFFF);
  check_int "sext32 min" (-0x8000_0000) (Codec.sext32 0x8000_0000);
  check_int "mask32" 0 (Codec.mask32 0x1_0000_0000)

let codec_writer_reader () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 42;
  Codec.Writer.u16 w 1000;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.str w "hello";
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  check_int "u8" 42 (Codec.Reader.u8 r);
  check_int "u16" 1000 (Codec.Reader.u16 r);
  check_int "u32" 123456789 (Codec.Reader.u32 r);
  check_string "str" "hello" (Codec.Reader.str r);
  check_bool "eof" true (Codec.Reader.eof r)

let codec_truncation () =
  let r = Codec.Reader.create (Bytes.make 2 'x') in
  ignore (Codec.Reader.u16 r);
  Alcotest.check_raises "truncated" (Failure "Codec.Reader: truncated input") (fun () ->
      ignore (Codec.Reader.u8 r))

let codec_prop_roundtrip =
  prop "codec: u32 write/read roundtrip at any offset"
    QCheck2.Gen.(pair (int_range 0 12) (int_bound 0xFFFFFFFF))
    (fun (off, v) ->
      let b = Bytes.make 16 '\000' in
      Codec.set_u32 b off v;
      Codec.get_u32 b off = v)

let codec_prop_sext =
  prop "codec: sext16 agrees with arithmetic" QCheck2.Gen.(int_range (-0x8000) 0x7FFF)
    (fun v -> Codec.sext16 (v land 0xFFFF) = v)

(* ----- prng ----- *)

let prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 50 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let prng_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let v = Prng.range rng 5 9 in
    check_bool "range bounds" true (v >= 5 && v < 9)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let prng_shuffle_permutes () =
  let rng = Prng.create ~seed:99 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ----- stats ----- *)

let stats_measure () =
  Stats.reset ();
  let (), delta =
    Stats.measure (fun () ->
        Stats.global.syscalls <- Stats.global.syscalls + 3;
        Stats.global.bytes_copied <- Stats.global.bytes_copied + 100)
  in
  check_int "syscalls delta" 3 delta.Stats.syscalls;
  check_int "bytes delta" 100 delta.Stats.bytes_copied;
  check_int "untouched" 0 delta.Stats.faults

let stats_cycles_model () =
  Stats.reset ();
  let s = Stats.snapshot () in
  check_int "zero cost" 0 (Stats.cycles s);
  Stats.global.faults <- 2;
  let s = Stats.snapshot () in
  check_bool "faults cost more than instructions" true (Stats.cycles s > 2)

let stats_json_roundtrip () =
  Stats.reset ();
  Stats.global.instructions <- 12345;
  Stats.global.faults <- 7;
  Stats.global.stable_persists <- 3;
  Stats.global.stable_loads <- 2;
  Stats.global.stable_rejects <- 1;
  Stats.global.plan_hits <- 42;
  let s = Stats.snapshot () in
  let j = Stats.to_json s in
  let s' = Stats.of_json j in
  check_bool "of_json inverts to_json" true (s = s');
  check_string "re-serialization is stable" j (Stats.to_json s');
  (* Unknown keys are ignored, missing keys read as zero. *)
  let partial = Stats.of_json {|{ "faults": 9, "not_a_counter": 1 }|} in
  check_int "present key parsed" 9 partial.Stats.faults;
  check_int "missing key zero" 0 partial.Stats.instructions

(* ----- environment switches ----- *)

let env_flags () =
  List.iter
    (fun (v, want) ->
      check_bool (Printf.sprintf "flag %s" (Option.value ~default:"unset" v)) want
        (Env.flag_of v))
    [
      (None, false);
      (Some "", false);
      (Some "  ", false);
      (Some "0", false);
      (Some " 0 ", false);
      (Some "1", true);
      (Some "yes", true);
      (Some "00", true);
    ];
  check_bool "string unset" true (Env.string_of None = None);
  check_bool "string blank" true (Env.string_of (Some " ") = None);
  check_bool "string trimmed" true (Env.string_of (Some " lossy ") = Some "lossy")

let env_ints () =
  check_bool "unset" true (Env.int_of ~min:1 "V" None = None);
  check_bool "empty" true (Env.int_of ~min:1 "V" (Some "") = None);
  check_bool "number" true (Env.int_of ~min:1 "V" (Some " 32 ") = Some 32);
  check_bool "at min" true (Env.int_of ~min:0 "V" (Some "0") = Some 0);
  check_bool "negative, no min" true (Env.int_of "V" (Some "-3") = Some (-3));
  let rejects what v min =
    match Env.int_of ~min "HEMLOCK_X" (Some v) with
    | _ -> Alcotest.failf "%s: %S accepted" what v
    | exception Failure msg ->
      check_bool (what ^ ": error names the variable") true
        (String.length msg >= 9 && String.sub msg 0 9 = "HEMLOCK_X")
  in
  rejects "malformed" "abc" 0;
  rejects "trailing junk" "32k" 0;
  rejects "below min" "0" 1;
  rejects "negative" "-1" 0

let suite =
  [
    test "interval_map: basic add/find" im_basic;
    test "interval_map: overlap detection" im_overlap;
    test "interval_map: remove and update" im_remove_update;
    test "interval_map: first_gap" im_first_gap;
    test "interval_map: to_list sorted" im_to_list_sorted;
    im_prop_stabbing;
    test "codec: scalar accessors" codec_scalars;
    test "codec: writer/reader" codec_writer_reader;
    test "codec: truncation detected" codec_truncation;
    codec_prop_roundtrip;
    codec_prop_sext;
    test "prng: deterministic" prng_deterministic;
    test "prng: bounds respected" prng_bounds;
    test "prng: shuffle permutes" prng_shuffle_permutes;
    test "stats: measure deltas" stats_measure;
    test "stats: cycle model" stats_cycles_model;
    test "stats: JSON round-trip" stats_json_roundtrip;
    test "env: switches: unset, empty or 0 is off" env_flags;
    test "env: numbers: malformed values name the variable" env_ints;
  ]
