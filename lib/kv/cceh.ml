module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model

type segment = {
  off : int;
  mutable local_depth : int;
  mutable n : int; (* occupied slots, tombstones included *)
}

type t = {
  dev : Device.t;
  seg_slots : int;
  probe_limit : int;
  mutable dir : segment array; (* length 2^global_depth *)
  mutable global_depth : int;
  mutable nsegments : int;
  mutable count : int;
  mutable nsplits : int;
}

let seg_bytes t = t.seg_slots * Types.slot_bytes

let alloc_segment t clock ~local_depth =
  let off = Device.alloc t.dev (seg_bytes t) in
  (* zero-fill the fresh segment (one bulk write) *)
  Device.write_bytes t.dev clock ~off (Bytes.make (seg_bytes t) '\000');
  Device.persist t.dev clock ~off ~len:(seg_bytes t);
  t.nsegments <- t.nsegments + 1;
  { off; local_depth; n = 0 }

let create ?(segment_slots = 1024) ?(probe_limit = 16) dev =
  let t =
    { dev;
      seg_slots = segment_slots;
      probe_limit;
      dir = [||];
      global_depth = 1;
      nsegments = 0;
      count = 0;
      nsplits = 0 }
  in
  let clock = Clock.create () in
  let s0 = alloc_segment t clock ~local_depth:1 in
  let s1 = alloc_segment t clock ~local_depth:1 in
  t.dir <- [| s0; s1 |];
  t

let count t = t.count
let segments t = t.nsegments
let global_depth t = t.global_depth

let dir_index t hash =
  if t.global_depth = 0 then 0
  else Int64.to_int (Int64.shift_right_logical hash (64 - t.global_depth))

let slot_off _t seg i = seg.off + (i * Types.slot_bytes)

(* Probe the bounded window; [`Hit i] key found at slot i, [`Empty i] first
   free slot, [`Full] window exhausted. *)
let probe_window t clock seg key =
  let hash = Hash.mix64 key in
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  (* reading a segment starts with its header (version word for CCEH's
     lock-free probing): one random device access *)
  Device.charge_read_bytes t.dev clock ~len:8 ~hint:Random;
  let start = Hash.slot_of ~hash ~slots:t.seg_slots in
  let rec go j prev_line =
    if j >= t.probe_limit then `Full
    else begin
      let i = (start + j) mod t.seg_slots in
      let off = slot_off t seg i in
      let line = off / unit in
      let hint : Device.read_hint =
        if line = prev_line then Adjacent else Random
      in
      let k = Device.read_u64 t.dev clock ~off ~hint in
      if Int64.equal k key then `Hit i
      else if Int64.equal k Types.empty_key then `Empty i
      else go (j + 1) line
    end
  in
  go 0 (-1)

let write_slot t clock seg i key loc =
  let off = slot_off t seg i in
  Device.write_u64 t.dev clock ~off key;
  Device.write_u64 t.dev clock ~off:(off + 8) (Int64.of_int loc);
  Device.persist t.dev clock ~off ~len:16

let write_loc t clock seg i loc =
  let off = slot_off t seg i + 8 in
  Device.write_u64 t.dev clock ~off (Int64.of_int loc);
  Device.persist t.dev clock ~off ~len:8

(* Directory-entry range covered by the segment reachable from [dir_ix]. *)
let seg_range t seg dir_ix =
  let width = 1 lsl (t.global_depth - seg.local_depth) in
  let base = dir_ix / width * width in
  (base, width)

let double_directory t =
  let old = t.dir in
  let n = Array.length old in
  t.dir <- Array.init (2 * n) (fun i -> old.(i / 2));
  t.global_depth <- t.global_depth + 1

let split t clock seg dir_ix =
  t.nsplits <- t.nsplits + 1;
  if seg.local_depth = t.global_depth then begin
    double_directory t;
    (* DRAM copy of the directory *)
    Clock.advance clock
      (float_of_int (Array.length t.dir) *. Cost_model.dram_hit_ns)
  end;
  (* dir_ix may have shifted after doubling: recompute from any entry that
     still points at [seg] *)
  let dir_ix =
    if t.dir.(min dir_ix (Array.length t.dir - 1)) == seg then
      min dir_ix (Array.length t.dir - 1)
    else begin
      let found = ref (-1) in
      Array.iteri (fun i s -> if !found < 0 && s == seg then found := i) t.dir;
      !found
    end
  in
  let base, width = seg_range t seg dir_ix in
  let child_depth = seg.local_depth + 1 in
  let left = alloc_segment t clock ~local_depth:child_depth in
  let right = alloc_segment t clock ~local_depth:child_depth in
  (* read the whole old segment, redistribute by the next hash bit *)
  let raw =
    Device.read_bytes t.dev clock ~off:seg.off ~len:(seg_bytes t) ~hint:Bulk
  in
  let lbuf = Bytes.make (seg_bytes t) '\000' in
  let rbuf = Bytes.make (seg_bytes t) '\000' in
  (* an entry must land inside its probe window or lookups miss it; one
     that finds the child's window full spills and is reinserted after the
     directory is rewired (which may split the child in turn) *)
  let spill = ref [] in
  let place buf child key loc =
    let hash = Hash.mix64 key in
    let start = Hash.slot_of ~hash ~slots:t.seg_slots in
    let rec free j =
      if j >= t.probe_limit then None
      else
        let i = (start + j) mod t.seg_slots in
        if
          Int64.equal
            (Bytes.get_int64_le buf (i * Types.slot_bytes))
            Types.empty_key
        then Some i
        else free (j + 1)
    in
    match free 0 with
    | Some i ->
      Bytes.set_int64_le buf (i * Types.slot_bytes) key;
      Bytes.set_int64_le buf ((i * Types.slot_bytes) + 8) (Int64.of_int loc);
      child.n <- child.n + 1
    | None -> spill := (key, loc) :: !spill
  in
  for i = 0 to t.seg_slots - 1 do
    let key = Bytes.get_int64_le raw (i * Types.slot_bytes) in
    if not (Int64.equal key Types.empty_key) then begin
      let loc =
        Int64.to_int (Bytes.get_int64_le raw ((i * Types.slot_bytes) + 8))
      in
      let hash = Hash.mix64 key in
      let bit =
        Int64.to_int (Int64.shift_right_logical hash (64 - child_depth))
        land 1
      in
      Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
      if bit = 0 then place lbuf left key loc else place rbuf right key loc
    end
  done;
  Device.write_bytes t.dev clock ~off:left.off lbuf;
  Device.persist t.dev clock ~off:left.off ~len:(seg_bytes t);
  Device.write_bytes t.dev clock ~off:right.off rbuf;
  Device.persist t.dev clock ~off:right.off ~len:(seg_bytes t);
  Device.dealloc t.dev ~off:seg.off ~len:(seg_bytes t);
  t.nsegments <- t.nsegments - 1;
  (* rewire directory: first half of the range -> left, second -> right *)
  for i = base to base + (width / 2) - 1 do
    t.dir.(i) <- left
  done;
  for i = base + (width / 2) to base + width - 1 do
    t.dir.(i) <- right
  done;
  List.rev !spill

(* [fresh] is false for an entry a split spilled: it is already counted. *)
let rec insert t clock ~fresh key loc =
  Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
  let hash = Hash.mix64 key in
  let ix = dir_index t hash in
  let seg = t.dir.(ix) in
  match probe_window t clock seg key with
  | `Hit i -> write_loc t clock seg i loc
  | `Empty i ->
    write_slot t clock seg i key loc;
    seg.n <- seg.n + 1;
    if fresh then t.count <- t.count + 1
  | `Full ->
    List.iter
      (fun (k, l) -> insert t clock ~fresh:false k l)
      (split t clock seg ix);
    insert t clock ~fresh key loc

let put t clock key loc =
  assert (not (Int64.equal key Types.empty_key));
  insert t clock ~fresh:true key loc

let get t clock key =
  Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
  let hash = Hash.mix64 key in
  let seg = t.dir.(dir_index t hash) in
  match probe_window t clock seg key with
  | `Hit i ->
    let loc =
      Device.read_u64 t.dev clock ~off:(slot_off t seg i + 8) ~hint:Adjacent
    in
    Some (Int64.to_int loc)
  | `Empty _ | `Full -> None

let delete t clock key =
  Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
  let hash = Hash.mix64 key in
  let seg = t.dir.(dir_index t hash) in
  match probe_window t clock seg key with
  | `Hit i ->
    write_loc t clock seg i Types.tombstone;
    true
  | `Empty _ | `Full -> false

let iter t clock f =
  (* one bulk read per distinct segment (directory entries alias segments
     whose local depth trails the global depth) *)
  let seen = Hashtbl.create (t.nsegments * 2) in
  Array.iter
    (fun seg ->
      if not (Hashtbl.mem seen seg.off) then begin
        Hashtbl.add seen seg.off ();
        let raw =
          Device.read_bytes t.dev clock ~off:seg.off ~len:(seg_bytes t)
            ~hint:Bulk
        in
        for i = 0 to t.seg_slots - 1 do
          let key = Bytes.get_int64_le raw (i * Types.slot_bytes) in
          if not (Int64.equal key Types.empty_key) then
            f key
              (Int64.to_int
                 (Bytes.get_int64_le raw ((i * Types.slot_bytes) + 8)))
        done
      end)
    t.dir

let dram_footprint t =
  float_of_int ((Array.length t.dir * 8) + (t.nsegments * 64))

let recover t clock =
  (* one metadata read per segment to rebuild the DRAM directory *)
  for _ = 1 to t.nsegments do
    Device.charge_read_bytes t.dev clock ~len:64 ~hint:Random;
    Clock.advance clock Cost_model.dram_hit_ns
  done

let splits t = t.nsplits
