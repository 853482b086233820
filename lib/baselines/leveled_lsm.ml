module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Bloom = Kv_common.Bloom
module Skiplist = Kv_common.Skiplist
module Flat_table = Kv_common.Flat_table
module Linear_table = Kv_common.Linear_table
module Scan = Kv_common.Scan
module Store_intf = Kv_common.Store_intf

type shape = Novelsm | Matrixkv

(* Both models: L0 plus three lower levels, each [ratio] times the one
   above it. *)
let lower_levels = 3
let ratio = 8

(* Pmem bytes of RowTable metadata per entry in a flushed MatrixKV L0
   sublevel (forward pointers + cross-row hints; ~45% of KV-pair size at
   64 B values in the paper). *)
let rowtable_meta_per_entry = 32

type memtable =
  | Pmem_skiplist of Skiplist.t  (** NoveLSM: persistent, cleared in place *)
  | Dram_table of Flat_table.t   (** MatrixKV: volatile, replaced at flush *)

type t = {
  shape : shape;
  memtable_cap : int;
  l0_runs : int;
  dev : Device.t;
  vlog : Vlog.t;
  mutable memtable : memtable;
  mutable l0 : Linear_table.t list; (* newest first *)
  lower : Linear_table.t option array; (* index 0 = L1 *)
  blooms : (int, Bloom.t) Hashtbl.t; (* keyed by run tag *)
  mutable next_seq : int;
  mutable bg_free_at : float;
  mutable mt_floor : int;
}

let fresh_dram_table cap =
  Dram_table (Flat_table.create ~load_factor:0.75 ~slots:(cap * 2) ())

let create shape ~memtable_cap ~l0_runs =
  let dev = Device.create Cost_model.optane in
  { shape;
    memtable_cap;
    l0_runs;
    dev;
    vlog = Vlog.create dev;
    memtable =
      (match shape with
      | Novelsm -> Pmem_skiplist (Skiplist.create dev)
      | Matrixkv -> fresh_dram_table memtable_cap);
    l0 = [];
    lower = Array.make lower_levels None;
    blooms = Hashtbl.create 16;
    next_seq = 1;
    bg_free_at = 0.0;
    mt_floor = 0 }

let name t = match t.shape with Novelsm -> "NoveLSM" | Matrixkv -> "MatrixKV"

(* {2 The MemTable: the first of the shape's four differences.} *)

let mem_count t =
  match t.memtable with
  | Pmem_skiplist s -> Skiplist.count s
  | Dram_table f -> Flat_table.count f

let mem_iter t f =
  match t.memtable with
  | Pmem_skiplist s -> Skiplist.iter s f
  | Dram_table tbl -> Flat_table.iter tbl f

let mem_get t clock key =
  match t.memtable with
  | Pmem_skiplist s -> Skiplist.get s clock key
  | Dram_table f -> Flat_table.get f clock key

let mem_reset t =
  match t.memtable with
  | Pmem_skiplist s -> Skiplist.clear s
  | Dram_table _ -> t.memtable <- fresh_dram_table t.memtable_cap

(* {2 Runs.  Which runs carry a filter is the second difference:
   NoveLSM filters every level, MatrixKV's L0 sublevels have none and
   persist RowTable metadata instead.} *)

let filtered t ~l0 = match t.shape with Novelsm -> true | Matrixkv -> not l0

let rec pow b = function 0 -> 1 | n -> b * pow b (n - 1)

(* Capacity (entries) of lower level k (0-based: k = 0 is L1). *)
let level_cap t k = t.l0_runs * t.memtable_cap * pow ratio k

let build_run t clock ~l0 entries =
  let n = List.length entries in
  let slots = max 64 (n * 4 / 3) in
  (* comparison-sorted run construction plus filter build: the CPU costs the
     paper blames for the leveled stores' low Pmem bandwidth utilization *)
  Clock.advance clock (float_of_int n *. Cost_model.sort_per_key_ns);
  let tbl = Linear_table.build t.dev clock ~slots entries in
  Linear_table.set_tag tbl t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if l0 && t.shape = Matrixkv then
    Device.charge_append t.dev clock ~len:(n * rowtable_meta_per_entry);
  if filtered t ~l0 then begin
    let bloom = Bloom.create ~expected:(max 16 n) ~bits_per_key:10 in
    List.iter (fun (k, _) -> Bloom.add bloom clock k) entries;
    Hashtbl.replace t.blooms (Linear_table.tag tbl) bloom
  end;
  tbl

let drop_run t tbl =
  Hashtbl.remove t.blooms (Linear_table.tag tbl);
  Linear_table.free tbl

let read_run clock tbl =
  let acc = ref [] in
  Linear_table.iter tbl clock (fun k l -> acc := (k, l) :: !acc);
  List.rev !acc

let merge_newest_first ~drop_tombstones clock sources =
  Kv_common.Merge.newest_first ~drop_tombstones
    ~on_entry:(fun () -> Clock.advance clock Cost_model.key_compare_ns)
    (List.map Kv_common.Merge.of_list sources)

let read_level bg t k = Option.to_list (Option.map (read_run bg) t.lower.(k))

(* Replace lower level [k]'s run with the merge of [sources] (newest
   first, the level's own old run last); tombstones die at the deepest
   level. *)
let merge_into t bg ~k sources =
  let entries =
    merge_newest_first bg ~drop_tombstones:(k = lower_levels - 1) sources
  in
  let fresh = build_run t bg ~l0:false entries in
  Option.iter (drop_run t) t.lower.(k);
  t.lower.(k) <- Some fresh

(* Leveled compaction: L0 merges into L1 once it holds more than [l0_runs]
   runs, then each over-capacity level rewrites the whole level below it
   (write amplification ~ ratio per level).  The deepest level may exceed
   its target.  Walking every level, not only the one just grown, also
   finishes a cascade a crash interrupted. *)
let compact t bg =
  if List.length t.l0 > t.l0_runs then begin
    let sources = List.map (read_run bg) t.l0 in
    merge_into t bg ~k:0 (sources @ read_level bg t 0);
    List.iter (drop_run t) t.l0;
    t.l0 <- []
  end;
  for k = 0 to lower_levels - 2 do
    match t.lower.(k) with
    | Some run when Linear_table.count run > level_cap t k ->
      let below = read_level bg t (k + 1) in
      merge_into t bg ~k:(k + 1) (read_run bg run :: below);
      drop_run t run;
      t.lower.(k) <- None
    | _ -> ()
  done

let flush t clock =
  ignore (Clock.wait_until clock t.bg_free_at);
  let bg = Clock.create ~at:(Clock.now clock) () in
  Vlog.flush t.vlog bg;
  let entries = ref [] in
  mem_iter t (fun k l -> entries := (k, l) :: !entries);
  (match t.memtable with
  | Pmem_skiplist s ->
    (* the immutable in-Pmem MemTable is streamed out during the flush *)
    Device.charge_read_bytes t.dev bg ~len:(Skiplist.byte_size s) ~hint:Bulk
  | Dram_table _ -> ());
  let tbl = build_run t bg ~l0:true (List.rev !entries) in
  t.l0 <- tbl :: t.l0;
  mem_reset t;
  compact t bg;
  t.bg_free_at <- Clock.now bg;
  (* keep the floor below the log entry of the put that triggered us *)
  t.mt_floor <- max t.mt_floor (Vlog.length t.vlog - 1)

let rec insert t clock key loc =
  if mem_count t >= t.memtable_cap then flush t clock;
  match t.memtable with
  | Pmem_skiplist s -> Skiplist.put s clock key loc
  | Dram_table f -> (
    match Flat_table.put f clock key loc with
    | `Ok -> ()
    | `Full ->
      flush t clock;
      insert t clock key loc)

let put t clock key ~vlen = insert t clock key (Vlog.append t.vlog clock key ~vlen)

let delete t clock key =
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  insert t clock key Types.tombstone

(* Every run, newest first, with its level (0 = L0). *)
let runs t =
  List.map (fun tbl -> (0, tbl)) t.l0
  @ List.concat
      (List.mapi
         (fun k r -> List.map (fun tbl -> (k + 1, tbl)) (Option.to_list r))
         (Array.to_list t.lower))

(* {2 Get path.  How a run is probed is the shape's last two differences:
   MatrixKV's L0 sublevels are found through cross-row hints in DRAM;
   every filtered run checks its filter first, and NoveLSM also pays a
   binary search of the run's index block.} *)

let probe_run t clock ~level tbl key =
  if level = 0 && t.shape = Matrixkv then begin
    (* cross-row hints: a couple of DRAM hint lookups, then the Pmem probe *)
    Clock.advance clock (2.0 *. Cost_model.dram_hit_ns);
    Linear_table.get tbl clock key
  end
  else
    let maybe =
      match Hashtbl.find_opt t.blooms (Linear_table.tag tbl) with
      | Some b -> Bloom.mem ~level b clock key
      | None -> true
    in
    if not maybe then Linear_table.Absent
    else begin
      if t.shape = Novelsm then
        Clock.advance clock
          (Float.log2 (float_of_int (max 2 (Linear_table.count tbl)))
          *. Cost_model.key_compare_ns);
      Linear_table.get tbl clock key
    end

(* A corrupt run block fails the probe closed: falling through to an older
   level could resurrect a superseded version. *)
let lookup t clock key =
  match mem_get t clock key with
  | Some loc -> `Hit loc
  | None ->
    let rec walk = function
      | [] -> `Miss
      | (level, tbl) :: rest -> (
        match probe_run t clock ~level tbl key with
        | Linear_table.Found loc -> `Hit loc
        | Linear_table.Corrupted -> `Corrupt
        | Linear_table.Absent -> walk rest)
    in
    walk (runs t)

let flush_all t clock =
  if mem_count t > 0 then flush t clock;
  Vlog.flush t.vlog clock

(* Hash-bucketed runs have no internal order, so every source pays a full
   snapshot; newest-first source order gives the merge correct shadowing
   (MemTable, then L0 newest first, then L1..Ln). *)
let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Leveled_lsm.scan: negative limit";
  let run_stream tbl =
    if Linear_table.intact tbl clock then
      Scan.of_iter clock ~start (fun f -> Linear_table.iter tbl clock f)
    else fun () -> Scan.Error
  in
  (* snapshots are taken (and charged) MemTable, L1..Ln, then L0 *)
  let mem = Scan.of_iter clock ~start (mem_iter t) in
  let lower = List.filter_map (Option.map run_stream) (Array.to_list t.lower) in
  let merged = Scan.merge ((mem :: List.map run_stream t.l0) @ lower) in
  let entries, _status = Scan.take (Scan.live merged) ~limit in
  entries

(* Runs are persistent; the MemTable is replayed from the log.  NoveLSM's
   skiplist is itself persistent, but replaying it is equivalent content
   at the same scan cost bound. *)
let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog;
  mem_reset t;
  t.mt_floor <- min t.mt_floor (Vlog.persisted t.vlog)

(* A crash can only fire inside a run build, before the compaction that
   needed it installed anything, so recovery first finishes that
   compaction (as a LevelDB-style store does on open), then replays the
   log tail into the MemTable. *)
let recover t clock =
  compact t clock;
  Vlog.iter_range t.vlog clock ~lo:t.mt_floor ~hi:(Vlog.persisted t.vlog)
    (fun loc key vlen ->
      insert t clock key (if vlen < 0 then Types.tombstone else loc))

let check_invariants t =
  let runs = runs t in
  let tags = List.map (fun (_, tbl) -> Linear_table.tag tbl) runs in
  let filtered_tags =
    List.filter_map
      (fun (level, tbl) ->
        if filtered t ~l0:(level = 0) then Some (Linear_table.tag tbl)
        else None)
      runs
  in
  let over_cap =
    List.find_opt
      (fun k ->
        match t.lower.(k) with
        | Some run -> Linear_table.count run > level_cap t k
        | None -> false)
      (List.init (lower_levels - 1) Fun.id)
  in
  if List.length t.l0 > t.l0_runs then
    Error
      (Printf.sprintf "L0 holds %d runs (max %d)" (List.length t.l0)
         t.l0_runs)
  else if over_cap <> None then
    let k = Option.get over_cap in
    Error
      (Printf.sprintf "L%d holds %d entries (cap %d)" (k + 1)
         (Linear_table.count (Option.get t.lower.(k)))
         (level_cap t k))
  else if List.length (List.sort_uniq compare tags) <> List.length tags then
    Error "two live runs share a tag"
  else if
    Hashtbl.length t.blooms <> List.length filtered_tags
    || not (List.for_all (Hashtbl.mem t.blooms) filtered_tags)
  then
    Error
      (Printf.sprintf "%d filters for %d filtered live runs"
         (Hashtbl.length t.blooms) (List.length filtered_tags))
  else Ok ()

let store t : Store_intf.store =
  (module struct
    let name = name t
    let write clock key spec = put t clock key ~vlen:(Store_intf.spec_vlen spec)
    let write_batch = Store_intf.sequential_write_batch write

    let read clock key =
      Store_intf.verified_read t.vlog clock key (lookup t clock key)

    let delete clock key = delete t clock key
    let scan clock ~start ~limit = scan t clock ~start ~limit
    let flush clock = flush_all t clock
    let maintenance _ = ()
    let scrub _ ~budget_bytes:_ = Store_intf.empty_scrub_report
    let health () = Store_intf.Healthy
    let shard_degraded _ = false
    let crash () = crash t
    let recover clock = recover t clock
    let check_invariants () = check_invariants t

    let dram_footprint () =
      let mem =
        match t.memtable with
        | Pmem_skiplist _ -> 0.0
        | Dram_table f -> Flat_table.footprint_bytes f
      in
      Hashtbl.fold
        (fun _ b acc -> acc +. Bloom.footprint_bytes b)
        t.blooms
        (mem +. Vlog.dram_footprint t.vlog)

    let pmem_footprint () = Device.used_bytes t.dev
    let device = t.dev
    let vlog = t.vlog
    let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
  end)
