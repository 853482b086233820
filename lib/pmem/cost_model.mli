(** Calibrated cost model for the simulated devices.

    Constants come from the paper itself and from the empirical Optane study
    it relies on (Yang et al., FAST'20): Optane random read latency is about
    3x DRAM, the media write unit is 256 B, sequential read bandwidth of the
    two interleaved DIMMs is around 12 GB/s, and sustained write bandwidth is
    a few GB/s with an iMC-contention decline beyond ~8 threads.  Absolute
    values only need to be plausible; the experiments report ratios and
    shapes. *)

type profile = {
  name : string;
  read_latency_ns : float;
      (** latency of one small random read (a cache-miss load, or an IO on
          the SSD profiles) *)
  write_latency_ns : float;
      (** visible latency of a persisted small write (ntstore + sfence, or an
          IO on the SSD profiles) *)
  read_bw_gbps : float;  (** peak aggregate read bandwidth, GB/s *)
  write_bw_gbps : float; (** peak aggregate media write bandwidth, GB/s *)
  write_unit : int;
      (** media write granularity in bytes; internal writes smaller than this
          are read-modify-write amplified (256 for Optane) *)
  random_read_occupancy_ns : float;
      (** how long one random access occupies the device's internal
          read-service resource; bounds aggregate random-read IOPS *)
}

val optane : profile
val dram : profile
val sata_ssd : profile
val nvme_ssd : profile

(** {1 CPU and DRAM cost constants (simulated ns)} *)

val dram_read_ns : float
(** One random (cache-missing) DRAM access. *)

val dram_hit_ns : float
(** An access expected to hit cache (adjacent slot, hot metadata). *)

val hash_ns : float
(** Computing one 64-bit hash. *)

val key_compare_ns : float

val bloom_check_ns : float
(** Probing one Bloom filter (a few cache lines + hashing). *)

val bloom_build_per_key_ns : float
(** Inserting one key while constructing a Bloom filter; the paper blames
    this CPU cost for Pmem-LSM-F's low put throughput. *)

val memcpy_ns_per_byte : float
(** Streaming copy cost per byte (used for batching, table writes). *)

val crc_ns_per_byte : float
(** CRC32C computation per byte (hardware-assisted rate, slightly above a
    streaming copy); charged wherever a record checksum is computed or
    verified. *)

val cpu_op_ns : float
(** Fixed per-request software overhead (dispatch, branch, allocation). *)

val sort_per_key_ns : float
(** Per-key cost of comparison-based merge/sort during compaction; hash-based
    stores avoid it but NoveLSM/MatrixKV pay it. *)

val skiplist_probe_ns : float
(** One pointer chase in a skiplist level (NoveLSM's in-Pmem MemTable). *)

val rehash_per_key_ns : float
(** Per-key cost of a sequential table rehash (Dram-Hash doubling); the
    whole rehash stalls the triggering insert, producing the multi-second
    worst-case put latencies of Table 2. *)

val scan_per_entry_ns : float
(** Per-entry cost of sequentially scanning an in-DRAM table (the ABI-fed
    last-level compaction of Fig. 8). *)

(** {1 Thread scaling} *)

val read_bw_scale : threads:int -> float
(** Multiplier on [read_bw_gbps] when [threads] threads drive the device. *)

val write_bw_scale : threads:int -> float
(** Multiplier on [write_bw_gbps]; rises to 1.0 around 4-8 threads, then
    declines (iMC contention, Fig. 1). *)

val aligned_span : unit:int -> off:int -> len:int -> int
(** [aligned_span ~unit ~off ~len] is the number of media bytes actually
    written when persisting [len] user bytes at [off]: the [unit]-aligned
    span covering the range (0 when [len = 0]). *)
