type stage =
  | Get_cache
  | Get_memtable
  | Get_abi
  | Get_level_probe
  | Get_log_read
  | Put_batch_copy
  | Put_index_insert
  | Put_flush_stall
  | Put_compaction_stall
  | Put_group_commit
  | Svc_decode
  | Svc_queue
  | Svc_execute
  | Svc_encode
  | Scan_stream
  | Rpc_backoff
  | Rpc_hedge
  | Rpc_timeout

let nstages = 18

let index = function
  | Get_cache -> 0
  | Get_memtable -> 1
  | Get_abi -> 2
  | Get_level_probe -> 3
  | Get_log_read -> 4
  | Put_batch_copy -> 5
  | Put_index_insert -> 6
  | Put_flush_stall -> 7
  | Put_compaction_stall -> 8
  | Put_group_commit -> 9
  | Svc_decode -> 10
  | Svc_queue -> 11
  | Svc_execute -> 12
  | Svc_encode -> 13
  | Scan_stream -> 14
  | Rpc_backoff -> 15
  | Rpc_hedge -> 16
  | Rpc_timeout -> 17

let all =
  [ Get_cache; Get_memtable; Get_abi; Get_level_probe;
    Get_log_read; Put_batch_copy; Put_index_insert; Put_flush_stall;
    Put_compaction_stall; Put_group_commit; Svc_decode; Svc_queue;
    Svc_execute; Svc_encode; Scan_stream; Rpc_backoff; Rpc_hedge;
    Rpc_timeout ]

let name = function
  | Get_cache -> "cache"
  | Get_memtable -> "memtable"
  | Get_abi -> "abi"
  | Get_level_probe -> "level-probe"
  | Get_log_read -> "log-read"
  | Put_batch_copy -> "batch-copy"
  | Put_index_insert -> "index-insert"
  | Put_flush_stall -> "flush-stall"
  | Put_compaction_stall -> "compaction-stall"
  | Put_group_commit -> "group-commit"
  | Svc_decode -> "svc-decode"
  | Svc_queue -> "svc-queue"
  | Svc_execute -> "svc-execute"
  | Svc_encode -> "svc-encode"
  | Scan_stream -> "scan-stream"
  | Rpc_backoff -> "rpc-backoff"
  | Rpc_hedge -> "rpc-hedge"
  | Rpc_timeout -> "rpc-timeout"

let op_of = function
  | Get_cache | Get_memtable | Get_abi | Get_level_probe | Get_log_read ->
    `Get
  | Put_batch_copy | Put_index_insert | Put_flush_stall
  | Put_compaction_stall | Put_group_commit ->
    `Put
  | Svc_decode | Svc_queue | Svc_execute | Svc_encode -> `Svc
  | Scan_stream -> `Scan
  | Rpc_backoff | Rpc_hedge | Rpc_timeout -> `Rpc

let on = ref false
let acc = Array.make nstages 0.0

let enabled () = !on
let enable () = on := true
let disable () = on := false
let reset () = Array.fill acc 0 nstages 0.0

let add stage ns = acc.(index stage) <- acc.(index stage) +. ns

type snapshot = float array

let snapshot () = Array.copy acc
let diff ~after ~before = Array.init nstages (fun i -> after.(i) -. before.(i))
let stage_ns snap stage = snap.(index stage)

let total ~op snap =
  List.fold_left
    (fun a s -> if op_of s = op then a +. stage_ns snap s else a)
    0.0 all
