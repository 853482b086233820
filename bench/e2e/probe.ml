(* Host-side measurement owned by the benchmark: a monotonic clock, peak
   RSS, and spans recorded around the calls the benchmark makes into each
   layer.  Nothing here touches simulated time, so turning spans on can
   change host timings but never a simulated result. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* {1 Spans}

   A span has a name, a start and an end (host ns), the span that encloses
   it and the id of the operation it belongs to.  Phase spans wrap the
   calls that drive a whole phase ([Runner.run_ops], [Server.run], ...);
   other spans are recorded only inside a phase.  Sums cover every
   recorded span.  Phase spans and the spans of one operation in
   [sample_every] are also kept as begin/end trace events, so nesting
   gives each kept span its parent and the event name carries its
   operation id. *)

let sample_every = 64

type acc = {
  mutable total : int;  (* ns inside spans of this name *)
  mutable count : int;
  mutable child : int;  (* ns of those spans covered by direct children *)
}

let trace_file = ref None
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16
let stack : acc list ref = ref [] (* accumulators of the open spans *)
let op = ref 0
let events : Obs.Trace.event list ref = ref [] (* kept events, newest first *)

(* Record spans from now on; [write_chrome_trace] writes them to [file]. *)
let enable file = trace_file := Some file
let enabled () = !trace_file <> None

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { total = 0; count = 0; child = 0 } in
    Hashtbl.replace accs name a;
    a

(* Start a new operation: the spans that follow share its id. *)
let new_op () = incr op

let keep ph name at =
  events :=
    { Obs.Trace.ph; name; cat = "ckvbench"; ts = float_of_int at; tid = 0;
      value = None }
    :: !events

let span ?(phase = false) name f =
  if not (enabled ()) || (!stack = [] && not phase) then f ()
  else begin
    let a = acc name in
    let kept = phase || !op mod sample_every = 0 in
    let ev_name = if phase then name else Printf.sprintf "%s #%d" name !op in
    let start = now_ns () in
    if kept then keep Obs.Trace.B ev_name start;
    stack := a :: !stack;
    let finish () =
      let stop = now_ns () in
      let d = stop - start in
      (match !stack with
       | _ :: (pa :: _ as rest) -> pa.child <- pa.child + d; stack := rest
       | _ :: [] | [] -> stack := []);
      a.total <- a.total + d;
      a.count <- a.count + 1;
      if kept then keep Obs.Trace.E ev_name stop
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* Per span name: total ns, self ns (total minus direct children) and
   count, accumulated since [enable]. *)
type sums = { s_total : float; s_self : float; s_count : int }

let snapshot () =
  Hashtbl.fold
    (fun name a l ->
      (name,
       { s_total = float_of_int a.total;
         s_self = float_of_int (a.total - a.child);
         s_count = a.count })
      :: l)
    accs []

let diff ~after ~before =
  List.map
    (fun (name, a) ->
      match List.assoc_opt name before with
      | None -> (name, a)
      | Some b ->
        (name,
         { s_total = a.s_total -. b.s_total;
           s_self = a.s_self -. b.s_self;
           s_count = a.s_count - b.s_count }))
    after

(* The kept spans as Chrome trace JSON, timestamps from the first one. *)
let write_chrome_trace () =
  Option.iter
    (fun file ->
      let evs = List.rev !events in
      let t0 = match evs with e :: _ -> e.Obs.Trace.ts | [] -> 0.0 in
      let evs = List.map (fun e -> { e with Obs.Trace.ts = e.Obs.Trace.ts -. t0 }) evs in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Obs.Export.to_chrome_json evs)))
    !trace_file
