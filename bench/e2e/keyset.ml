(* The benchmark's own oracle of written keys, independent of every
   structure in the store.  Membership is an open-addressing table over
   an unboxed int64 Bigarray (a million keys cost 16 MB, not the ~100 MB
   a [Hashtbl] would); ordered counts for the scan check come from a
   sorted copy built on first use.  Key 0 is the empty marker, which is
   safe because no generator produces it (see [Kv_common.Types]). *)

open Bigarray

type t = {
  mutable slots : (int64, int64_elt, c_layout) Array1.t;
  mutable size : int;
  mutable sorted : int64 array option;
      (* members in [Types.key_compare] order, as of the last rebuild *)
  mutable pending : int64 list;  (* members added since that rebuild *)
  mutable npending : int;
}

let alloc cap =
  let a = Array1.create int64 c_layout cap in
  Array1.fill a 0L;
  a

let create () =
  { slots = alloc 1024; size = 0; sorted = None; pending = []; npending = 0 }

let size t = t.size

let hash k = Int64.to_int (Kv_common.Hash.mix64 k) land max_int

let find_slot slots k =
  let mask = Array1.dim slots - 1 in
  let rec go i =
    let v = Array1.unsafe_get slots i in
    if Int64.equal v 0L || Int64.equal v k then i else go ((i + 1) land mask)
  in
  go (hash k land mask)

let grow t =
  let old = t.slots in
  let slots = alloc (2 * Array1.dim old) in
  for i = 0 to Array1.dim old - 1 do
    let k = Array1.unsafe_get old i in
    if not (Int64.equal k 0L) then Array1.unsafe_set slots (find_slot slots k) k
  done;
  t.slots <- slots

let mem t k = Int64.equal (Array1.unsafe_get t.slots (find_slot t.slots k)) k

let add t k =
  if Int64.equal k 0L then invalid_arg "Keyset.add: reserved key 0";
  let i = find_slot t.slots k in
  if not (Int64.equal (Array1.unsafe_get t.slots i) k) then begin
    Array1.unsafe_set t.slots i k;
    t.size <- t.size + 1;
    if t.sorted <> None then begin
      t.pending <- k :: t.pending;
      t.npending <- t.npending + 1
    end;
    if 2 * t.size > Array1.dim t.slots then grow t
  end

let iter t f =
  for i = 0 to Array1.dim t.slots - 1 do
    let k = Array1.unsafe_get t.slots i in
    if not (Int64.equal k 0L) then f k
  done

let cmp = Kv_common.Types.key_compare

(* Number of entries of the sorted array [a] for which [below] holds;
   [below] must be monotone (true on a prefix). *)
let prefix_len a below =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below a.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

let sorted t =
  match t.sorted with
  | Some a when t.npending <= 4096 -> a
  | _ ->
    let a = Array.make t.size 0L and i = ref 0 in
    iter t (fun k -> a.(!i) <- k; incr i);
    Array.sort cmp a;
    t.sorted <- Some a;
    t.pending <- [];
    t.npending <- 0;
    a

(* Members [k] with [lo <= k] and, when [hi] is given, [k <= hi]. *)
let count_range t ~lo ~hi =
  let a = sorted t in
  let le_hi k = match hi with None -> true | Some h -> cmp k h <= 0 in
  let in_sorted =
    prefix_len a le_hi - prefix_len a (fun k -> cmp k lo < 0)
  in
  List.fold_left
    (fun acc k -> if cmp k lo >= 0 && le_hi k then acc + 1 else acc)
    (max 0 in_sorted) t.pending

(* Up to [n] members drawn uniformly (with replacement) by probing
   random slots with [rng]; deterministic for a given set and seed. *)
let sample t rng n =
  if t.size = 0 then [||]
  else begin
    let cap = Array1.dim t.slots in
    Array.init n (fun _ ->
        let rec pick () =
          let k = Array1.unsafe_get t.slots (Workload.Rng.int rng cap) in
          if Int64.equal k 0L then pick () else k
        in
        pick ())
  end
