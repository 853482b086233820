module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Crc32c = Pmem_sim.Crc32c

type layout = Hashed | Sorted

type t = {
  dev : Device.t;
  off : int;
  nslots : int;
  mutable live : int;
  mutable tag : int;
  unit_crcs : int32 array; (* per-write-unit block checksums *)
  layout : layout;
  fences : Types.key array;
      (* Sorted only: first key of each write unit, kept in DRAM.  Point
         gets binary-search the fences and touch exactly one unit. *)
}

type probe = Found of Types.loc | Absent | Corrupted

let slot_off t i = t.off + (i * Types.slot_bytes)

(* Per-unit checksums over the run's bytes.  [off] is unit-aligned (the
   allocator aligns), so run-relative unit boundaries coincide with media
   units: a probe can verify exactly the block it loads. *)
let compute_unit_crcs ~unit bytes =
  let len = Bytes.length bytes in
  let n = (len + unit - 1) / unit in
  Array.init n (fun u ->
      let lo = u * unit in
      Crc32c.update Crc32c.empty bytes ~off:lo ~len:(min unit (len - lo)))

let build dev clock ~slots entries =
  if slots <= 0 then invalid_arg "Linear_table.build";
  let keys = Array.make slots Types.empty_key in
  let locs = Array.make slots 0 in
  let live = ref 0 in
  let insert (key, loc) =
    assert (not (Int64.equal key Types.empty_key));
    let h = Hash.mix64 key in
    let rec probe i =
      if Int64.equal keys.(i) key then locs.(i) <- loc
      else if Int64.equal keys.(i) Types.empty_key then begin
        keys.(i) <- key;
        locs.(i) <- loc;
        incr live
      end
      else probe ((i + 1) mod slots)
    in
    if !live >= slots then invalid_arg "Linear_table.build: overfull";
    Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
    probe (Hash.slot_of ~hash:h ~slots)
  in
  List.iter insert entries;
  let bytes = Bytes.create (slots * Types.slot_bytes) in
  for i = 0 to slots - 1 do
    Bytes.set_int64_le bytes (i * Types.slot_bytes) keys.(i);
    Bytes.set_int64_le bytes ((i * Types.slot_bytes) + 8)
      (Int64.of_int locs.(i))
  done;
  let unit = (Device.profile dev).Cost_model.write_unit in
  (* checksum the staged run before it goes out: one streaming CRC pass *)
  Clock.advance clock
    (Cost_model.crc_ns_per_byte *. float_of_int (Bytes.length bytes));
  let unit_crcs = compute_unit_crcs ~unit bytes in
  let off = Device.alloc dev (slots * Types.slot_bytes) in
  Device.write_bytes dev clock ~off bytes;
  Device.persist dev clock ~off ~len:(slots * Types.slot_bytes);
  { dev; off; nslots = slots; live = !live; tag = 0; unit_crcs;
    layout = Hashed; fences = [||] }

(* Ordered variant of the run format: the same dense 16 B-slot array, but
   slots are filled in ascending key order (no probing, no holes except
   trailing padding) and a DRAM fence array records the first key of each
   write unit.  A point get binary-searches the fences and touches exactly
   one unit — cost parity with the hashed probe — while [iter] and a
   [cursor] stream the run in key order. *)
let build_sorted dev clock entries =
  let entries = List.stable_sort (fun (a, _) (b, _) -> Types.key_compare a b) entries in
  (* later bindings of the same key override earlier ones, as in [build] *)
  let entries =
    let rec dedup = function
      | (k1, _) :: ((k2, _) :: _ as rest) when Int64.equal k1 k2 -> dedup rest
      | e :: rest -> e :: dedup rest
      | [] -> []
    in
    dedup entries
  in
  let n = List.length entries in
  Clock.advance clock (Cost_model.sort_per_key_ns *. float_of_int n);
  let slots = max 1 n in
  let bytes = Bytes.make (slots * Types.slot_bytes) '\000' in
  List.iteri
    (fun i (k, loc) ->
      assert (not (Int64.equal k Types.empty_key));
      Bytes.set_int64_le bytes (i * Types.slot_bytes) k;
      Bytes.set_int64_le bytes ((i * Types.slot_bytes) + 8) (Int64.of_int loc))
    entries;
  let unit = (Device.profile dev).Cost_model.write_unit in
  assert (unit mod Types.slot_bytes = 0);
  let slots_per_unit = unit / Types.slot_bytes in
  Clock.advance clock
    (Cost_model.crc_ns_per_byte *. float_of_int (Bytes.length bytes));
  let unit_crcs = compute_unit_crcs ~unit bytes in
  let fences =
    Array.init (Array.length unit_crcs) (fun u ->
        Bytes.get_int64_le bytes (u * slots_per_unit * Types.slot_bytes))
  in
  let off = Device.alloc dev (slots * Types.slot_bytes) in
  Device.write_bytes dev clock ~off bytes;
  Device.persist dev clock ~off ~len:(slots * Types.slot_bytes);
  { dev; off; nslots = slots; live = n; tag = 0; unit_crcs;
    layout = Sorted; fences }

let dram_bytes t = 8 * Array.length t.fences
let count t = t.live
let tag t = t.tag
let set_tag t v = t.tag <- v
let byte_size t = t.nslots * Types.slot_bytes

(* Does the media block holding run-relative unit [u] still carry the bytes
   the run was built with?  Uncharged: the caller prices the CRC pass.  The
   checksum runs over the device bytes in place, copying nothing. *)
let unit_intact_unpriced t u =
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let lo = u * unit in
  let len = min unit (byte_size t - lo) in
  (not (Device.poisoned_in t.dev ~off:(t.off + lo) ~len))
  && Int32.equal t.unit_crcs.(u) (Device.crc32c t.dev ~off:(t.off + lo) ~len)

(* Largest fence index whose key is <= [key]; -1 if [key] precedes the run.
   Fences live in DRAM: each bisection step is charged as a key compare.
   [charge] is off for the silent path (DRAM-mirror callers price walks). *)
let fence_floor ?(clock = None) t key =
  let steps = ref 0 in
  let lo = ref 0 and hi = ref (Array.length t.fences - 1) and res = ref (-1) in
  while !lo <= !hi do
    incr steps;
    (match clock with
    | Some c -> Clock.advance c Cost_model.key_compare_ns
    | None -> ());
    let mid = (!lo + !hi) / 2 in
    if Types.key_compare t.fences.(mid) key <= 0 then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  (!res, !steps)

let slots_per_unit t = (Device.profile t.dev).Cost_model.write_unit / Types.slot_bytes

(* Search unit [u] of a sorted run for [key] in place, without charging:
   slots ascend, so the walk stops at the first key past [key] or at the
   trailing padding.  Returns the location, if found, and the number of
   slots compared. *)
let search_unit t u key =
  let spu = slots_per_unit t in
  let stop = min t.nslots ((u + 1) * spu) in
  let rec scan i steps =
    if i >= stop then (None, steps)
    else begin
      let off = slot_off t i in
      let k = Device.peek_u64 t.dev ~off in
      if Int64.equal k key then
        (Some (Int64.to_int (Device.peek_u64 t.dev ~off:(off + 8))), steps + 1)
      else if Int64.equal k Types.empty_key || Types.key_compare k key > 0
      then (None, steps + 1)
      else scan (i + 1) (steps + 1)
    end
  in
  scan (u * spu) 0

(* The paper's last-level point get: a DRAM fence step, then one random
   device read fetching the target unit, which is checksum-verified and
   searched in the CPU cache at [key_compare_ns] per compared slot. *)
let get_sorted t clock key =
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let u, _ = fence_floor ~clock:(Some clock) t key in
  if u < 0 then Absent
  else begin
    Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int unit);
    if not (unit_intact_unpriced t u) then Corrupted
    else begin
      Device.charge_read_bytes t.dev clock
        ~len:(min unit (byte_size t - (u * unit))) ~hint:Random;
      let loc, steps = search_unit t u key in
      Clock.advance clock (Cost_model.key_compare_ns *. float_of_int steps);
      match loc with Some loc -> Found loc | None -> Absent
    end
  end

let get_hashed t clock key =
  let h = Hash.mix64 key in
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let start = Hash.slot_of ~hash:h ~slots:t.nslots in
  let rec probe i prev_line =
    let off = slot_off t i in
    let line = off / unit in
    let hint : Device.read_hint =
      if prev_line = line then Adjacent else Random
    in
    (* first touch of a block verifies its checksum before any slot in it
       is trusted (the block is in cache; the CRC pass is CPU cost) *)
    if line <> prev_line then
      Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int unit);
    if line <> prev_line && not (unit_intact_unpriced t (line - (t.off / unit)))
    then Corrupted
    else begin
      let k = Device.read_u64 t.dev clock ~off ~hint in
      if Int64.equal k key then begin
        let loc = Device.read_u64 t.dev clock ~off:(off + 8) ~hint:Adjacent in
        Found (Int64.to_int loc)
      end
      else if Int64.equal k Types.empty_key then Absent
      else probe ((i + 1) mod t.nslots) line
    end
  in
  probe start (-1)

let get t clock key =
  match t.layout with
  | Hashed -> get_hashed t clock key
  | Sorted -> get_sorted t clock key

(* Whole-run verification: poison over the span plus every block checksum.
   Charges the CRC pass always, and the bulk device read only when asked —
   compaction piggybacks verification on the streaming read it already does
   ([iter]), while the standalone scrubber pays for its own read. *)
let intact ?(charge_read = false) t clock =
  let len = byte_size t in
  if charge_read then
    Device.charge_read_bytes t.dev clock ~len ~hint:Bulk;
  Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int len);
  (not (Device.poisoned_in t.dev ~off:t.off ~len))
  &&
  let ok = ref true in
  for u = 0 to Array.length t.unit_crcs - 1 do
    if !ok && not (unit_intact_unpriced t u) then ok := false
  done;
  !ok

let iter t clock f =
  let len = t.nslots * Types.slot_bytes in
  let bytes = Device.read_bytes t.dev clock ~off:t.off ~len ~hint:Bulk in
  for i = 0 to t.nslots - 1 do
    let k = Bytes.get_int64_le bytes (i * Types.slot_bytes) in
    if not (Int64.equal k Types.empty_key) then begin
      let loc = Int64.to_int (Bytes.get_int64_le bytes ((i * Types.slot_bytes) + 8)) in
      f k loc
    end
  done

let media_range t = (t.off, byte_size t)

let free t = Device.dealloc t.dev ~off:t.off ~len:(byte_size t)

(* Silent accessors: no device-cost charging.  Used by stores that keep a
   DRAM copy of a table (Pmem-LSM-PinK) and charge DRAM costs themselves.
   [get_silent] also reports the probe count so callers can price the walk.
   The DRAM mirror is not subject to media faults, so these do not verify. *)

let get_silent t key =
  match t.layout with
  | Sorted ->
      let u, steps = fence_floor t key in
      if u < 0 then (None, steps)
      else
        let loc, scanned = search_unit t u key in
        (loc, steps + scanned)
  | Hashed ->
      let h = Hash.mix64 key in
      let start = Hash.slot_of ~hash:h ~slots:t.nslots in
      let rec probe i steps =
        let off = slot_off t i in
        let k = Device.peek_u64 t.dev ~off in
        if Int64.equal k key then begin
          let loc = Device.peek_u64 t.dev ~off:(off + 8) in
          (Some (Int64.to_int loc), steps + 1)
        end
        else if Int64.equal k Types.empty_key then (None, steps + 1)
        else probe ((i + 1) mod t.nslots) (steps + 1)
      in
      probe start 0

let iter_silent t f =
  for i = 0 to t.nslots - 1 do
    let off = slot_off t i in
    let k = Device.peek_u64 t.dev ~off in
    if not (Int64.equal k Types.empty_key) then begin
      let loc = Int64.to_int (Device.peek_u64 t.dev ~off:(off + 8)) in
      f k loc
    end
  done

(* Ordered cursor over a Sorted run.  Lazy: units are bulk-read and
   checksum-verified one at a time as the cursor crosses into them, so a
   short scan touching one unit pays for one unit.  Entries are served
   from the unit's DRAM copy at [scan_per_entry_ns] each.  Tombstones and
   quarantine markers ARE emitted — shadowing and suppression are the
   merge layer's job.  A failing unit is fail-stop: the cursor answers
   [`Corrupt] from then on. *)
type cursor = {
  ct : t;
  cclock : Clock.t;
  start : Types.key;
  mutable i : int; (* next slot to serve *)
  mutable buf : Bytes.t; (* current unit's bytes *)
  mutable buf_unit : int; (* unit index of [buf]; -1 = none loaded *)
  mutable positioned : bool; (* past the < start prefix of the start unit *)
  mutable dead : bool;
}

let cursor t clock ~start =
  if t.layout <> Sorted then invalid_arg "Linear_table.cursor: unsorted run";
  let u, _ = fence_floor ~clock:(Some clock) t start in
  let spu = slots_per_unit t in
  { ct = t;
    cclock = clock;
    start;
    i = (if u <= 0 then 0 else u * spu);
    buf = Bytes.empty;
    buf_unit = -1;
    positioned = false;
    dead = false }

let rec cursor_next c =
  if c.dead then `Corrupt
  else if c.i >= c.ct.nslots then `End
  else begin
    let t = c.ct in
    let unit = (Device.profile t.dev).Cost_model.write_unit in
    let u = c.i * Types.slot_bytes / unit in
    if u <> c.buf_unit then begin
      Clock.advance c.cclock (Cost_model.crc_ns_per_byte *. float_of_int unit);
      if not (unit_intact_unpriced t u) then begin
        c.dead <- true;
        `Corrupt
      end
      else begin
        let lo = u * unit in
        let len = min unit (byte_size t - lo) in
        c.buf <-
          Device.read_bytes t.dev c.cclock ~off:(t.off + lo) ~len ~hint:Bulk;
        c.buf_unit <- u;
        cursor_serve c
      end
    end
    else cursor_serve c
  end

and cursor_serve c =
  let t = c.ct in
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let rel = (c.i * Types.slot_bytes) - (c.buf_unit * unit) in
  let k = Bytes.get_int64_le c.buf rel in
  Clock.advance c.cclock Cost_model.scan_per_entry_ns;
  c.i <- c.i + 1;
  if Int64.equal k Types.empty_key then `End (* dense: only trailing padding *)
  else if (not c.positioned) && Types.key_compare k c.start < 0 then
    cursor_next c
  else begin
    c.positioned <- true;
    `Entry (k, Int64.to_int (Bytes.get_int64_le c.buf (rel + 8)))
  end
