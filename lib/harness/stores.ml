module Config = Chameleondb.Config
module Store_intf = Kv_common.Store_intf
module Types = Kv_common.Types

type scale = {
  shards : int;
  memtable_slots : int;
  load_keys : int;
  sweep_ops : int;
  threads : int list;
  vlen : int;
}

(* One full shard cycle (everything compacted to the last level once) is
   shards x memtable_slots x r^(levels-1) x load_factor ~= shards x slots x
   48 keys; the load must exceed ~2 cycles so that, as in the paper's
   billion-key steady state, most keys reside in the last level. *)
let default =
  { shards = 32;
    memtable_slots = 128;
    load_keys = 500_000;
    sweep_ops = 200_000;
    threads = [ 1; 2; 4; 8; 16 ];
    vlen = 8 }

let quick =
  { shards = 8;
    memtable_slots = 128;
    load_keys = 125_000;
    sweep_ops = 50_000;
    threads = [ 1; 4; 16 ];
    vlen = 8 }

let chameleon_cfg ?(seed = 1) scale =
  { Config.default with
    Config.shards = scale.shards;
    memtable_slots = scale.memtable_slots;
    seed = Config.default.Config.seed + seed - 1 }

type spec = { name : string; make : unit -> Store_intf.store }

let chameleon ?(f = fun cfg -> cfg) ?(name = "ChameleonDB") ?seed scale =
  { name;
    make =
      (fun () -> Chameleondb.Store.store ~name
          (Chameleondb.Store.create ~cfg:(f (chameleon_cfg ?seed scale)) ())) }

let paper ?(cache_bytes = 0) ?seed scale =
  let cfg = chameleon_cfg ?seed scale in
  [ chameleon ~f:(fun cfg -> { cfg with Config.cache_bytes }) ?seed scale;
    { name = "Pmem-LSM-PinK";
      make =
        (fun () -> Baselines.Pmem_lsm.store
            (Baselines.Pmem_lsm.create ~cfg Baselines.Pmem_lsm.Pink)) };
    { name = "Pmem-LSM-NF";
      make =
        (fun () -> Baselines.Pmem_lsm.store
            (Baselines.Pmem_lsm.create ~cfg Baselines.Pmem_lsm.Nf)) };
    { name = "Pmem-LSM-F";
      make =
        (fun () -> Baselines.Pmem_lsm.store
            (Baselines.Pmem_lsm.create ~cfg Baselines.Pmem_lsm.F)) };
    { name = "Pmem-Hash";
      make =
        (fun () -> Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ())) };
    { name = "Dram-Hash";
      make =
        (fun () -> Baselines.Dram_hash.store (Baselines.Dram_hash.create ())) }
  ]

let all ?cache_bytes ?seed scale =
  paper ?cache_bytes ?seed scale
  @ [ { name = "Hybrid-Viper";
        make =
          (fun () ->
            Baselines.Hybrid_viper.store (Baselines.Hybrid_viper.create ()))
      } ]

let find ?cache_bytes ?seed scale name =
  match
    List.find_opt (fun s -> s.name = name) (all ?cache_bytes ?seed scale)
  with
  | Some s -> s
  | None -> invalid_arg ("Stores.find: unknown store " ^ name)

(* Bulk loads go through [write_batch] groups: stores with a group
   commit (Hybrid-Viper) pay one fence per group, the rest take the
   sequential fallback — identical op stream either way. *)
let load_group = 32

let load_unique ~store ~threads ~start_at ~n ~vlen =
  let i = ref 0 in
  let next () =
    let key = Workload.Keyspace.key_of_index !i in
    incr i;
    (key, Store_intf.Sized vlen)
  in
  let r =
    Runner.run_write_batches ~store ~threads ~start_at ~ops:n
      ~group:load_group ~next ()
  in
  let clock = Pmem_sim.Clock.create ~at:r.Runner.end_ns () in
  Store_intf.flush store clock;
  r

let settled_cursor ~store r =
  Float.max r.Runner.end_ns
    (Pmem_sim.Device.quiesce_at (Store_intf.device store))

let sustained_mops ~store r =
  let ns = settled_cursor ~store r -. r.Runner.start_ns in
  if ns <= 0.0 then 0.0 else float_of_int r.Runner.ops /. ns *. 1000.0

let uniform_get_gen ~seed ~universe =
  let rng = Workload.Rng.create ~seed in
  fun () ->
    Types.Get (Workload.Keyspace.key_of_index (Workload.Rng.int rng universe))
