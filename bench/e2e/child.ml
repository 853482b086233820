(* Run a computation in a forked child process and hand its result back
   over a pipe.  Each benchmark round runs this way, so its heap, GC
   state and peak RSS are its own; the service workload forks each load
   rung off one preloaded store, so every rung starts from the same
   state.  The child is always waited for. *)

(* The child being waited for, so that a terminated parent takes it down
   too (and, through the same handler, its own child). *)
let current = ref None

let forward_termination () =
  let handler _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !current;
    Unix._exit 143
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle handler))
    [ Sys.sigterm; Sys.sigint ]

let run (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    current := None;
    Unix.close rd;
    let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (res : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    current := Some pid;
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let res : ('a, string) result =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "child exited without a result"
    in
    close_in ic;
    let rec wait () =
      try snd (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    current := None;
    (match status, res with
     | Unix.WEXITED 0, _ | _, Error _ -> res
     | _, Ok _ -> Error "child exited abnormally")
