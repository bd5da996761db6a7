(* Interval-keyed reader/writer locks over page ranges.

   One [t] guards one address space.  A hold covers a half-open page
   range [lo, hi); two holds conflict when their ranges overlap and at
   least one is [Exclusive].  Acquire blocks on a condition variable
   until no conflicting hold remains, so concurrent faults, maps and
   materialisations on disjoint ranges of the same space never wait on
   each other, while overlapping writers serialise.

   Deadlock-freedom is structural, not clever: the contract is one held
   range per thread of control ([with_range] never nests on the same
   [t]), so a waiting thread holds nothing and no wait cycle can form.

   Kill switch: with [HEMLOCK_NO_RANGELOCK] set, every acquisition is
   promoted to an exclusive whole-space hold — the lock degenerates to
   one big mutex per space, the bisection tool for suspected
   range-granularity bugs. *)

type mode = Shared | Exclusive

type hold = { h_lo : int; h_hi : int; h_mode : mode }

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable holds : hold list;  (* sorted by [h_lo]; short in practice *)
  big : bool;  (* kill switch: behave as a single mutex *)
}

let no_rangelock = Hemlock_util.Env.flag "HEMLOCK_NO_RANGELOCK"

let create () =
  { lock = Mutex.create (); cond = Condition.create (); holds = []; big = no_rangelock }

(* half-open ranges: [a_lo, a_hi) meets [b_lo, b_hi) *)
let overlaps a_lo a_hi b_lo b_hi = a_lo < b_hi && b_lo < a_hi

let conflicts mode lo hi h =
  overlaps lo hi h.h_lo h.h_hi && (mode = Exclusive || h.h_mode = Exclusive)

let rec insert h = function
  | [] -> [ h ]
  | h' :: rest when h'.h_lo < h.h_lo -> h' :: insert h rest
  | holds -> h :: holds

let acquire t ~lo ~hi mode =
  if hi <= lo then invalid_arg "Range_lock.acquire: empty range";
  Mutex.lock t.lock;
  if t.big then begin
    (* whole-space exclusivity, whatever was asked for *)
    while t.holds <> [] do
      Condition.wait t.cond t.lock
    done;
    t.holds <- [ { h_lo = lo; h_hi = hi; h_mode = Exclusive } ]
  end
  else begin
    while List.exists (conflicts mode lo hi) t.holds do
      Condition.wait t.cond t.lock
    done;
    t.holds <- insert { h_lo = lo; h_hi = hi; h_mode = mode } t.holds
  end;
  Mutex.unlock t.lock

let release t ~lo ~hi =
  Mutex.lock t.lock;
  let rec drop_first = function
    | [] -> invalid_arg "Range_lock.release: range not held"
    | h :: rest when h.h_lo = lo && h.h_hi = hi -> rest
    | h :: rest -> h :: drop_first rest
  in
  t.holds <- drop_first t.holds;
  (* broadcast, not signal: several disjoint waiters may now all fit *)
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let with_range t ~lo ~hi mode f =
  acquire t ~lo ~hi mode;
  Fun.protect ~finally:(fun () -> release t ~lo ~hi) f

let held t =
  Mutex.lock t.lock;
  let holds = List.map (fun h -> (h.h_lo, h.h_hi, h.h_mode)) t.holds in
  Mutex.unlock t.lock;
  holds
