type profile = {
  name : string;
  read_latency_ns : float;
  write_latency_ns : float;
  read_bw_gbps : float;
  write_bw_gbps : float;
  write_unit : int;
  random_read_occupancy_ns : float;
}

let optane =
  { name = "optane";
    read_latency_ns = 250.0;
    write_latency_ns = 90.0;
    read_bw_gbps = 12.0;
    write_bw_gbps = 4.0;
    write_unit = 256;
    random_read_occupancy_ns = 18.0 }

let dram =
  { name = "dram";
    read_latency_ns = 80.0;
    write_latency_ns = 80.0;
    read_bw_gbps = 30.0;
    write_bw_gbps = 30.0;
    write_unit = 64;
    random_read_occupancy_ns = 2.0 }

let sata_ssd =
  { name = "sata-ssd";
    read_latency_ns = 90_000.0;
    write_latency_ns = 70_000.0;
    read_bw_gbps = 0.5;
    write_bw_gbps = 0.45;
    write_unit = 4096;
    random_read_occupancy_ns = 15_000.0 }

let nvme_ssd =
  { name = "nvme-ssd";
    read_latency_ns = 25_000.0;
    write_latency_ns = 20_000.0;
    read_bw_gbps = 3.0;
    write_bw_gbps = 2.0;
    write_unit = 4096;
    random_read_occupancy_ns = 2_000.0 }

let dram_read_ns = 80.0
let dram_hit_ns = 12.0
let hash_ns = 18.0
let key_compare_ns = 2.0
let bloom_check_ns = 110.0
let bloom_build_per_key_ns = 140.0
let memcpy_ns_per_byte = 0.04
let crc_ns_per_byte = 0.05
let cpu_op_ns = 45.0
let sort_per_key_ns = 60.0
let skiplist_probe_ns = 85.0
let rehash_per_key_ns = 5.0
let scan_per_entry_ns = 5.0

(* Piecewise-linear interpolation over log2(threads) through measured-shape
   anchor points at 1, 2, 4, 8, 16, 32 threads. *)
let interp anchors threads =
  let t = float_of_int (max 1 threads) in
  let x = Float.log2 t in
  let n = Array.length anchors in
  if x >= float_of_int (n - 1) then anchors.(n - 1)
  else begin
    let i = int_of_float x in
    let frac = x -. float_of_int i in
    anchors.(i) +. (frac *. (anchors.(i + 1) -. anchors.(i)))
  end

let write_anchors = [| 0.50; 0.85; 1.00; 0.96; 0.86; 0.72 |]
let read_anchors = [| 0.40; 0.70; 0.95; 1.00; 1.00; 0.95 |]

let write_bw_scale ~threads = interp write_anchors threads
let read_bw_scale ~threads = interp read_anchors threads

let aligned_span ~unit ~off ~len =
  if len <= 0 then 0
  else begin
    let first = off / unit in
    let last = (off + len - 1) / unit in
    (last - first + 1) * unit
  end
