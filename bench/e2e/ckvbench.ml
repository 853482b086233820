(* ckvbench: the repository benchmark.

     ckvbench [--workload NAME] [--seed N[,N...]] [--seconds S] [--trace 0|1]
              [--repeat N] [--out FILE] [--smoke]
     ckvbench compare OLD.json NEW.json [--bench BENCHMARK.json]

   One run of a workload is [rounds_per_run] rounds, each in its own
   forked process and on its own seed derived from the run's seed.  The
   simulated metrics pool the samples of these rounds; host metrics are
   the median over rounds, host throughput the fastest round.  While the
   measured phases add up to less than [--seconds], further rounds
   repeat the seeds in order, and each must reproduce the simulated
   metrics of the round it repeats exactly.  With [--trace 1] every
   round has a traced twin on the same seed: the per-layer metrics come
   from the twins, and each twin must reproduce its round's simulated
   metrics exactly.  The last line of output is one JSON object. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ckvbench: " ^ s); exit 2) fmt

(* Rounds whose samples a run pools.  The seeds' spread of a simulated
   metric shrinks with the square root of the pooled sample. *)
let rounds_per_run = 4

let round_seed seed k = Hashtbl.hash (seed, k)

(* No round beyond [rounds_per_run] starts once this much wall time is
   spent, so a run ends well inside its 180 s limit even on a slow host. *)
let budget_s = 120.0

let out_dir = "_ckvbench"
let trace_file name = Filename.concat out_dir ("trace-" ^ name ^ ".json")

let median = Workloads.median

(* Quartiles as Python's statistics.quantiles(data, n=4) computes them
   (the default "exclusive" method). *)
let quartiles l =
  let d = Array.of_list l in
  Array.sort compare d;
  let ld = Array.length d in
  if ld < 2 then (median l, median l)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
  end

(* {1 One run of one workload} *)

type run = {
  workload : string;
  seed : int;
  e2e : (string * string * Workloads.axis * float) list;
  layer : (string * string * float) list;  (* traced runs only *)
  attempted : int;
  failed : int;
  errors : string list;
  round_s : float list;  (* measured host seconds of each round *)
}

let value name l =
  match List.find_opt (fun (n, _, _, _) -> n = name) l with
  | Some (_, _, _, v) -> v
  | None -> nan

let simulated l =
  List.filter_map
    (fun (n, _, axis, v) -> if axis = Workloads.Sim then Some (n, v) else None)
    l

let run_workload ~name ~seed ~seconds ~trace ~smoke =
  let t0 = Probe.now_ns () in
  let pooled = if smoke then 1 else rounds_per_run in
  let trace_file = trace_file name in
  if trace && Sys.file_exists trace_file then Sys.remove trace_file;
  let round k ~trace =
    match
      Child.run (fun () ->
          Workloads.round name ~seed:(round_seed seed (k mod pooled)) ~smoke ~trace)
    with
    | Ok r -> r
    | Error e -> fail "%s (seed %d): round failed: %s" name seed e
  in
  let plain = ref [] and traced = ref [] and measured = ref 0.0 in
  let more k =
    let elapsed = Probe.seconds_since t0 in
    k < pooled
    || (!measured < seconds && elapsed +. (elapsed /. float_of_int k) < budget_s)
  in
  let k = ref 0 in
  while more !k do
    let r = round !k ~trace:None in
    plain := r :: !plain;
    measured := !measured +. r.Workloads.host_s;
    if trace then traced := round !k ~trace:(Some trace_file) :: !traced;
    incr k
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let errors = ref [] in
  (* simulated metrics are a function of code and seed: a repeated seed
     reproduces them, and so does tracing *)
  let check label a b =
    let sim r = simulated (Workloads.e2e ~host:[ r ] ~sim:[ r ]) in
    List.iter2
      (fun (n, x) (_, y) ->
        if not (Float.equal x y) then
          errors :=
            Printf.sprintf "%s: %s differs (%.17g vs %.17g)" label n x y :: !errors)
      (sim a) (sim b)
  in
  List.iteri
    (fun k r -> if k >= pooled then check "rounds of one seed" (List.nth plain (k mod pooled)) r)
    plain;
  if trace then List.iter2 (check "tracing on vs off") plain traced;
  let e2e =
    Workloads.e2e ~host:plain ~sim:(List.filteri (fun k _ -> k < pooled) plain)
  in
  let kops rs = value "host_kops_per_s" (Workloads.e2e ~host:rs ~sim:rs) in
  let layer =
    match traced with
    | [] -> []
    | first :: _ ->
      List.map
        (fun (n, u, _) ->
          let v (r : Workloads.result) =
            match List.find_opt (fun (m, _, _) -> m = n) r.Workloads.layer with
            | Some (_, _, v) -> v
            | None -> nan
          in
          (n, u, median (List.map v traced)))
        first.Workloads.layer
      @ [ ("obs.trace_overhead_ratio", "ratio", kops plain /. kops traced) ]
  in
  let all = plain @ traced in
  let sum f = List.fold_left (fun a r -> a + f r) 0 all in
  { workload = name;
    seed;
    e2e;
    layer;
    attempted = sum (fun r -> r.Workloads.attempted);
    failed = sum (fun r -> r.Workloads.failed);
    errors =
      List.rev !errors @ List.concat_map (fun r -> r.Workloads.errors) all;
    round_s = List.map (fun r -> r.Workloads.host_s) plain }

(* The result object: per-layer metrics for a traced run, end-to-end
   metrics otherwise. *)
let metrics r =
  if r.layer = [] then List.map (fun (n, u, _, v) -> (n, u, v)) r.e2e else r.layer

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool (r.errors = []));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics",
       Json.Obj
         (List.map
            (fun (n, u, v) ->
              (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
            (metrics r))) ]

let print_run r =
  Printf.printf "%s  seed %d  rounds measured %s s\n" r.workload r.seed
    (String.concat " " (List.map (Printf.sprintf "%.2f") r.round_s));
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-44s %16.6g %s\n" n v u)
    (List.map (fun (n, u, _, v) -> (n, u, v)) r.e2e @ r.layer);
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors

(* {1 BENCHMARK.json} *)

type declared = {
  d_workloads : string list;
  d_e2e : (string * string * string * float) list;  (* name, unit, better, bound *)
  d_layer : (string * string) list;
}

let read_file f = In_channel.with_open_bin f In_channel.input_all

let parse_file file =
  try Json.parse (read_file file)
  with Sys_error e | Json.Parse_error e -> fail "%s: %s" file e

let declared file =
  let j = parse_file file in
  let field k o = Json.to_str (Json.member k o) in
  { d_workloads = List.map (field "name") (Json.to_list (Json.member "workloads" j));
    d_e2e =
      List.map
        (fun o ->
          (field "name" o, field "unit" o, field "better" o,
           Json.to_num (Json.member "bound" o)))
        (Json.to_list (Json.member "end_to_end" j));
    d_layer =
      List.map
        (fun o -> (field "name" o, field "unit" o))
        (Json.to_list (Json.member "per_layer" j)) }

(* {1 Repeat, compare} *)

(* Runs by workload, each with its seed and the names of its simulated
   metrics, which [compare] pairs by seed. *)
let runs_json runs =
  List.map
    (fun w ->
      ( w,
        List.filter_map
          (fun r ->
            if r.workload <> w then None
            else
              Some
                (Json.Obj
                   [ ("seed", Json.Num (float_of_int r.seed));
                     ("simulated",
                      Json.Arr (List.map (fun (n, _) -> Json.Str n) (simulated r.e2e)));
                     ("result", result_json r) ])) runs ))
    (List.sort_uniq compare (List.map (fun r -> r.workload) runs))

(* [--out]: add the runs to those already in [file], so that runs of two
   builds can be alternated into two files. *)
let save_runs file runs =
  let old =
    if not (Sys.file_exists file) then []
    else
      match parse_file file with
      | Json.Obj ws -> List.map (fun (w, rs) -> (w, Json.to_list rs)) ws
      | _ -> fail "%s: not a ckvbench --out file" file
  in
  let merged =
    List.fold_left
      (fun acc (w, rs) ->
        match List.assoc_opt w acc with
        | Some old_rs -> List.map (fun (v, l) -> if v = w then (v, old_rs @ rs) else (v, l)) acc
        | None -> acc @ [ (w, rs) ])
      old (runs_json runs)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj (List.map (fun (w, rs) -> (w, Json.Arr rs)) merged))
         ^ "\n"))

let print_spread runs =
  let ws = List.sort_uniq compare (List.map (fun r -> r.workload) runs) in
  List.iter
    (fun w ->
      let rs = List.filter (fun r -> r.workload = w) runs in
      Printf.printf "%s  (%d runs)\n  %-44s %14s %14s %14s %9s %9s\n" w
        (List.length rs) "metric" "median" "q1" "q3" "iqr/med" "max/min";
      List.iter
        (fun (n, u, _) ->
          let vs =
            List.map
              (fun r ->
                let _, _, v = List.find (fun (m, _, _) -> m = n) (metrics r) in
                v)
              rs
          in
          let med = median vs and q1, q3 = quartiles vs in
          let lo = List.fold_left Float.min infinity vs
          and hi = List.fold_left Float.max neg_infinity vs in
          Printf.printf "  %-44s %14.6g %14.6g %14.6g %8.2f%% %9.4f  %s\n" n med
            q1 q3
            (100.0 *. (q3 -. q1) /. Float.abs med)
            (if lo = 0.0 then nan else hi /. lo)
            u)
        (metrics (List.hd rs)))
    ws

type saved = { s_seed : int; s_sim : string list; s_values : (string * float) list }

let load_runs file =
  match parse_file file with
  | Json.Obj ws ->
    List.map
      (fun (w, rs) ->
        ( w,
          List.map
            (fun r ->
              { s_seed = int_of_float (Json.to_num (Json.member "seed" r));
                s_sim = List.map Json.to_str (Json.to_list (Json.member "simulated" r));
                s_values =
                  (match Json.member "metrics" (Json.member "result" r) with
                   | Json.Obj ms ->
                     List.map (fun (n, m) -> (n, Json.to_num (Json.member "value" m))) ms
                   | _ -> []) })
            (Json.to_list rs) ))
      ws
  | _ -> fail "%s: not a ckvbench --out file" file

(* A simulated metric is a function of code and seed, so old and new
   runs are paired by seed and compared without a spread test: the
   change is that of the median over the shared seeds, and it is better
   only if every shared seed reads better.  A host metric varies between
   runs of one seed: it is unresolved when the old runs' quartile spread
   exceeds the bound, unless every new run beats every old one.  Both
   apply the bound of BENCHMARK.json to the change of the median. *)
let compare_files ~bench old_f new_f =
  let d = declared bench in
  let old_r = load_runs old_f and new_r = load_runs new_f in
  let regressed = ref 0 in
  Printf.printf "%-14s %-20s %13s %13s %9s %-16s %7s  %s\n" "workload" "metric"
    "old median" "new median" "change" "basis" "bound" "verdict";
  List.iter
    (fun (w, olds) ->
      match List.assoc_opt w new_r with
      | None -> Printf.printf "%-14s (missing from %s)\n" w new_f
      | Some news ->
        List.iter
          (fun (name, _, better, bound) ->
            let lower = better = "lower" in
            let beats a b = if lower then a < b else a > b in
            let vals rs = List.filter_map (fun r -> List.assoc_opt name r.s_values) rs in
            let report ~mo ~mn ~basis ~better_all ~unresolved =
              (* positive = worse *)
              let worse = (if lower then mn -. mo else mo -. mn) /. Float.abs mo in
              let verdict =
                if better_all then "better"
                else if unresolved then "unresolved"
                else if worse > bound then (incr regressed; "REGRESSED")
                else "ok"
              in
              Printf.printf "%-14s %-20s %13.6g %13.6g %+8.2f%% %-16s %6.1f%%  %s\n"
                w name mo mn
                (100.0 *. (mn -. mo) /. Float.abs mo)
                basis (100.0 *. bound) verdict
            in
            let sim = List.exists (fun r -> List.mem name r.s_sim) olds in
            if sim then begin
              (* one value per seed; repeats of a seed must agree *)
              let per_seed rs =
                List.filter_map
                  (fun s ->
                    match vals (List.filter (fun r -> r.s_seed = s) rs) with
                    | [] -> None
                    | v :: vs ->
                      if List.exists (fun x -> not (Float.equal x v)) vs then
                        Printf.printf "%-14s %-20s seed %d: repeats disagree\n" w name s;
                      Some (s, v))
                  (List.sort_uniq compare (List.map (fun r -> r.s_seed) rs))
              in
              let o = per_seed olds and n = per_seed news in
              let pairs =
                List.filter_map
                  (fun (s, a) -> Option.map (fun b -> (a, b)) (List.assoc_opt s n))
                  o
              in
              if o = [] || n = [] then ()
              else if pairs = [] then
                Printf.printf "%-14s %-20s no seed in common\n" w name
              else
                report
                  ~mo:(median (List.map fst pairs))
                  ~mn:(median (List.map snd pairs))
                  ~basis:
                    (let n = List.length pairs in
                     Printf.sprintf "paired, %d seed%s" n (if n = 1 then "" else "s"))
                  ~better_all:(List.for_all (fun (a, b) -> beats b a) pairs)
                  ~unresolved:false
            end
            else begin
              let o = vals olds and n = vals news in
              if o <> [] && n <> [] then begin
                let mo = median o in
                let q1, q3 = quartiles o in
                let spread = (q3 -. q1) /. Float.abs mo in
                report ~mo ~mn:(median n)
                  ~basis:(Printf.sprintf "spread %.2f%%" (100.0 *. spread))
                  ~better_all:
                    (List.for_all (fun x -> List.for_all (fun y -> beats x y) o) n)
                  ~unresolved:(spread > bound)
              end
            end)
          d.d_e2e)
    old_r;
  if !regressed > 0 then exit 1

(* {1 Smoke test} *)

(* Every declared metric is emitted with its declared unit, end-to-end
   values are positive, the result line parses back, and every check
   passes. *)
let smoke_check ~bench runs =
  let d = declared bench in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if d.d_workloads <> Workloads.names then
    problem "BENCHMARK.json workloads differ from the benchmark's";
  let same_set w what declared emitted =
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n emitted with
        | None -> problem "%s: %s metric %s declared but not emitted" w what n
        | Some u' when u' <> u ->
          problem "%s: %s metric %s has unit %s, declared %s" w what n u' u
        | Some _ -> ())
      declared;
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n declared) then
          problem "%s: %s metric %s emitted but not declared" w what n)
      emitted
  in
  List.iter
    (fun (r : run) ->
      let w = r.workload in
      if r.errors <> [] then
        problem "%s: checks failed: %s" w (String.concat "; " r.errors);
      if not (Sys.file_exists (trace_file w)) then problem "%s: no Chrome trace" w;
      same_set w "end-to-end"
        (List.map (fun (n, u, _, _) -> (n, u)) d.d_e2e)
        (List.map (fun (n, u, _, _) -> (n, u)) r.e2e);
      same_set w "per-layer" d.d_layer (List.map (fun (n, u, _) -> (n, u)) r.layer);
      List.iter
        (fun (n, _, _, v) ->
          if not (v > 0.0 && Float.is_finite v) then
            problem "%s: end-to-end metric %s = %g" w n v)
        r.e2e;
      List.iter
        (fun (r : run) ->
          let line = Json.to_string (result_json r) in
          match Json.parse line with
          | j ->
            List.iter
              (fun (n, u, v) ->
                let m = Json.member n (Json.member "metrics" j) in
                if Json.to_str (Json.member "unit" m) <> u
                   || not (Float.equal (Json.to_num (Json.member "value" m)) v)
                then problem "%s: metric %s does not round-trip" w n)
              (metrics r)
          | exception Json.Parse_error e -> problem "%s: result line: %s" w e)
        [ r; { r with layer = [] } ])
    runs;
  List.rev !problems

(* {1 Command line} *)

let () =
  let workload = ref None and seeds = ref [ 1 ] and seconds = ref 6.0
  and trace = ref false and repeat = ref 1 and out = ref None
  and smoke = ref false and bench = ref "BENCHMARK.json" and anon = ref [] in
  let parse_seeds s =
    match List.map int_of_string (String.split_on_char ',' s) with
    | l -> seeds := l
    | exception Failure _ -> fail "--seed: expected N or N,N,...: %s" s
  in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME run one workload (default: all)");
      ("--seed", Arg.String parse_seeds, "N[,N...] input seeds (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S measured seconds per run, at least (default 6)");
      ("--trace", Arg.Int (fun i -> trace := i <> 0),
       "0|1 1: traced run, report per-layer metrics, write _ckvbench/trace-NAME.json");
      ("--repeat", Arg.Set_int repeat, "N runs of each seed");
      ("--out", Arg.String (fun s -> out := Some s), "FILE add every run's result to FILE");
      ("--smoke", Arg.Set smoke, " tiny sizes; check metrics against BENCHMARK.json");
      ("--bench", Arg.Set_string bench, "FILE BENCHMARK.json to check against") ]
  in
  let usage = "ckvbench [options] | ckvbench compare OLD.json NEW.json" in
  Arg.parse specs (fun a -> anon := a :: !anon) usage;
  Child.forward_termination ();
  match List.rev !anon with
  | [ "compare"; o; n ] -> compare_files ~bench:!bench o n
  | _ :: _ -> Arg.usage specs usage; exit 2
  | [] ->
    let names =
      match !workload with
      | None -> Workloads.names
      | Some w when List.mem w Workloads.names -> [ w ]
      | Some w -> fail "unknown workload %s (one of: %s)" w (String.concat ", " Workloads.names)
    in
    let trace = !trace || !smoke in
    let seconds = if !smoke then 0.0 else !seconds in
    if trace then (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* simulated threads are virtual clocks: the load comes from one host
       thread whatever the core count *)
    if not !smoke then
      Printf.printf "ckvbench: host has %d cores; each round runs on one thread\n"
        (Domain.recommended_domain_count ());
    let runs =
      List.concat_map
        (fun name ->
          List.concat_map
            (fun seed ->
              List.init (max 1 !repeat) (fun _ ->
                  let r = run_workload ~name ~seed ~seconds ~trace ~smoke:!smoke in
                  if not !smoke then print_run r;
                  r))
            !seeds)
        names
    in
    Option.iter (fun f -> save_runs f runs) !out;
    if !smoke then begin
      match smoke_check ~bench:!bench runs with
      | [] ->
        Printf.printf
          "ckvbench smoke: %d runs emit every declared metric; all checks pass\n"
          (List.length runs)
      | problems ->
        List.iter (Printf.printf "SMOKE FAILED: %s\n") problems;
        exit 1
    end
    else begin
      if List.length runs > 1 then print_spread runs;
      let ok = List.for_all (fun r -> r.errors = []) runs in
      (match runs with
       | [ r ] -> print_endline (Json.to_string (result_json r))
       | _ ->
         print_endline
           (Json.to_string
              (Json.Obj
                 [ ("correct", Json.Bool ok);
                   ("runs",
                    Json.Obj (List.map (fun (w, rs) -> (w, Json.Arr rs)) (runs_json runs))) ])));
      if not ok then exit 1
    end
