(* Tests for the network ingestion plane: the length-prefixed frame
   codec (decode ∘ encode = id under any fragmentation, torn frames at
   every byte boundary, oversized/zero-length rejection) and the Hub
   end-to-end over real sockets — a socket-fed peer's report must be
   byte-identical to driving the engine directly, a hub killed by its
   tick budget and restarted from snapshots must be bit-identical to an
   uninterrupted run, and misbehaving peers (garbage frames, half-open
   connections, queue overflow) must be dropped without perturbing the
   others. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Engine = Tomo_stream.Engine
module Frame = Tomo_net.Frame
module Hub = Tomo_net.Hub
module Listener = Tomo_net.Listener

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let drain_frames dec =
  let rec go acc =
    match Frame.next dec with None -> List.rev acc | Some f -> go (f :: acc)
  in
  go []

let wire_of payloads =
  let b = Buffer.create 256 in
  List.iter (Frame.encode_into b) payloads;
  Buffer.contents b

let payloads_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (string_size (int_range 1 40) ~gen:(char_range '\000' '\255')))

let payloads_arb =
  QCheck.make ~print:(fun ps -> String.concat "|" (List.map String.escaped ps))
    payloads_gen

(* decode(encode(xs)) = xs when the whole wire arrives in one read. *)
let frame_roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"frame roundtrip, one read"
    payloads_arb
    (fun payloads ->
      let dec = Frame.create () in
      Frame.feed_string dec (wire_of payloads);
      drain_frames dec = payloads && Frame.at_boundary dec)

(* ... and when the wire is torn at every byte boundary: for each split
   point, feeding the two halves yields the same frames. *)
let frame_torn_qcheck =
  QCheck.Test.make ~count:50 ~name:"frame roundtrip, torn at every byte"
    payloads_arb
    (fun payloads ->
      let wire = wire_of payloads in
      let ok = ref true in
      for cut = 0 to String.length wire do
        let dec = Frame.create () in
        Frame.feed_string dec (String.sub wire 0 cut);
        Frame.feed_string dec
          (String.sub wire cut (String.length wire - cut));
        if drain_frames dec <> payloads || not (Frame.at_boundary dec) then
          ok := false
      done;
      !ok)

(* ... and byte-at-a-time (maximal fragmentation). *)
let frame_bytewise_qcheck =
  QCheck.Test.make ~count:100 ~name:"frame roundtrip, byte at a time"
    payloads_arb
    (fun payloads ->
      let wire = wire_of payloads in
      let dec = Frame.create () in
      String.iter (fun c -> Frame.feed_string dec (String.make 1 c)) wire;
      drain_frames dec = payloads && Frame.at_boundary dec)

let test_frame_rejections () =
  (* encode refuses empty and oversized payloads *)
  (match Frame.encode "" with
  | _ -> Alcotest.fail "empty payload accepted"
  | exception Invalid_argument _ -> ());
  (match Frame.encode ~max_payload:4 "12345" with
  | _ -> Alcotest.fail "oversized payload accepted"
  | exception Invalid_argument _ -> ());
  (* a header announcing more than the cap poisons the decoder *)
  let dec = Frame.create ~max_payload:16 () in
  let huge = "\x00\x00\x01\x00" (* 256 bytes *) in
  (match Frame.feed_string dec huge with
  | _ -> Alcotest.fail "oversized frame accepted"
  | exception Failure msg ->
      check_bool "names the cap" true (contains ~needle:"exceeds cap" msg));
  (* ... and stays poisoned: the peer cannot resynchronize *)
  (match Frame.feed_string dec (Frame.encode "ok") with
  | _ -> Alcotest.fail "poisoned decoder recovered"
  | exception Failure _ -> ());
  (* a zero-length frame is a protocol error too *)
  let dec = Frame.create () in
  (match Frame.feed_string dec "\x00\x00\x00\x00" with
  | _ -> Alcotest.fail "zero-length frame accepted"
  | exception Failure _ -> ());
  (* a clean stream ends at a boundary; a torn one does not *)
  let dec = Frame.create () in
  Frame.feed_string dec (Frame.encode "hello");
  check_bool "boundary after full frame" true (Frame.at_boundary dec);
  Frame.feed_string dec "\x00\x00";
  check_bool "mid-header is not a boundary" false (Frame.at_boundary dec);
  check_int "frames_decoded" 1 (Frame.frames_decoded dec);
  check_int "bytes_fed" (String.length (Frame.encode "hello") + 2)
    (Frame.bytes_fed dec)

(* ------------------------------------------------------------------ *)
(* Shared scaffolding for the hub tests                                *)
(* ------------------------------------------------------------------ *)

let shuffled_prefix rng n k =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

let random_model rng =
  let n_links = 4 + Rng.int rng 6 in
  let n_paths = 3 + Rng.int rng 5 in
  let paths =
    Array.init n_paths (fun _ ->
        let k = 1 + Rng.int rng (min 4 n_links) in
        shuffled_prefix rng n_links k)
  in
  let sets = ref [] and i = ref 0 in
  while !i < n_links do
    let k = min (n_links - !i) (1 + Rng.int rng 3) in
    sets := Array.init k (fun j -> !i + j) :: !sets;
    i := !i + k
  done;
  Tomo.Model.make ~n_links ~paths
    ~corr_sets:(Array.of_list (List.rev !sets))

let random_column rng n_paths =
  let b = Bitset.create n_paths in
  for p = 0 to n_paths - 1 do
    if Rng.bool rng ~p:0.7 then Bitset.set b p
  done;
  b

let bits_of col n_paths =
  String.init n_paths (fun p -> if Bitset.get col p then '1' else '0')

(* The framed records a well-behaved peer sends for [cols]. *)
let trace_frames ?peer ~n_paths cols =
  let records = ref [] in
  Option.iter (fun name -> records := [ "peer " ^ name ]) peer;
  records := "tomo-trace v1" :: !records;
  records := Printf.sprintf "paths %d" n_paths :: !records;
  Array.iteri
    (fun i col ->
      records :=
        Printf.sprintf "tick %d %s" i (bits_of col n_paths) :: !records)
    cols;
  wire_of (List.rev !records)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "tomo_net_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let write_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* A peer over a socketpair: hands the server end to [attach], writes
   [wire] from a client thread, then half-closes. *)
let spawn_peer ?(close_after = true) hub wire =
  let server, client =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Hub.attach hub server;
  let th =
    Thread.create
      (fun () ->
        (try write_all client wire
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        if close_after then
          try Unix.close client with Unix.Unix_error _ -> ())
      ()
  in
  (th, client)

let wait_for ?(timeout = 20.) pred what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The reference: drive an engine directly over the same columns. *)
let expected_report ~model ~window cols =
  let engine = Engine.create ~model ~window () in
  let last =
    Array.fold_left
      (fun last col ->
        match Engine.ingest engine (Bitset.copy col) with
        | Some e -> Some e
        | None -> last)
      None cols
  in
  Engine.report_to_string ~window (Option.get last)

(* ------------------------------------------------------------------ *)
(* Hub: socket-fed == direct, per-peer isolation                       *)
(* ------------------------------------------------------------------ *)

(* Serves peers "alpha" and "beta" through one hub writing reports to
   [dir]; returns the hub's stats once it has stopped after both
   reports. *)
let serve_alpha_beta ~model ~window ~dir cols_a cols_b =
  let n_paths = model.Tomo.Model.n_paths in
  let hub = Hub.create ~model ~window ~report_dir:dir () in
  let runner = Thread.create Hub.run hub in
  let th_a, _ = spawn_peer hub (trace_frames ~peer:"alpha" ~n_paths cols_a) in
  let th_b, _ = spawn_peer hub (trace_frames ~peer:"beta" ~n_paths cols_b) in
  wait_for (fun () -> (Hub.stats hub).Hub.reports_written = 2) "both reports";
  Hub.request_stop hub;
  Thread.join runner;
  Thread.join th_a;
  Thread.join th_b;
  Hub.stats hub


let test_hub_matches_direct () =
  let rng = Rng.create 11 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 12 in
  let cols_a = Array.init total (fun _ -> random_column rng n_paths) in
  let cols_b = Array.init total (fun _ -> random_column rng n_paths) in
  with_tmpdir (fun dir ->
      let s = serve_alpha_beta ~model ~window ~dir cols_a cols_b in
      check_int "ticks" (2 * total) s.Hub.ticks_ingested;
      check_int "dropped" 0 s.Hub.peers_dropped;
      Alcotest.(check string)
        "alpha socket report == direct engine report"
        (expected_report ~model ~window cols_a)
        (read_file (Filename.concat dir "alpha.report"));
      Alcotest.(check string)
        "beta socket report == direct engine report"
        (expected_report ~model ~window cols_b)
        (read_file (Filename.concat dir "beta.report")))

(* Kill the hub mid-ingest via its tick budget, restart it from the
   snapshot directory, re-send the full trace: the final report must be
   byte-identical to an uninterrupted run. *)
let test_hub_kill_restore () =
  let rng = Rng.create 23 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 14 and cut = 9 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let wire = trace_frames ~peer:"gamma" ~n_paths cols in
  with_tmpdir (fun dir ->
      (* run 1: cut after [cut] ticks — Hub.run returns on its own *)
      let hub1 =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir
          ~max_ticks:cut ()
      in
      let runner1 = Thread.create Hub.run hub1 in
      let th1, _ = spawn_peer hub1 wire in
      Thread.join runner1;
      Thread.join th1;
      let s1 = Hub.stats hub1 in
      check_int "cut at the budget" cut s1.Hub.ticks_ingested;
      check_int "no report from the cut run" 0 s1.Hub.reports_written;
      check_bool "snapshot exists" true
        (Sys.file_exists (Filename.concat dir "gamma.snap"));
      (* run 2: restore, re-send everything (skip fast-forwards) *)
      let hub2 =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir ()
      in
      let runner2 = Thread.create Hub.run hub2 in
      let th2, _ = spawn_peer hub2 wire in
      wait_for
        (fun () -> (Hub.stats hub2).Hub.reports_written = 1)
        "resumed report";
      Hub.request_stop hub2;
      Thread.join runner2;
      Thread.join th2;
      check_int "only the tail was re-ingested" (total - cut)
        (Hub.stats hub2).Hub.ticks_ingested;
      Alcotest.(check string)
        "kill+restore report == uninterrupted report"
        (expected_report ~model ~window cols)
        (read_file (Filename.concat dir "gamma.report")))

(* A peer sending a well-framed but garbage record is dropped; a peer
   racing it on another socket is untouched. *)
let test_hub_garbage_peer_isolated () =
  let rng = Rng.create 37 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 3 and total = 8 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  with_tmpdir (fun dir ->
      let hub = Hub.create ~model ~window ~report_dir:dir () in
      let runner = Thread.create Hub.run hub in
      let th_bad, _ =
        spawn_peer hub
          (wire_of [ "peer evil"; "tomo-trace v1"; "paths nope" ])
      in
      let th_ugly, _ =
        (* raw garbage: a frame header announcing 2 GiB *)
        spawn_peer hub "\x7f\xff\xff\xff overflow!"
      in
      let th_good, _ =
        spawn_peer hub (trace_frames ~peer:"good" ~n_paths cols)
      in
      wait_for
        (fun () ->
          let s = Hub.stats hub in
          s.Hub.reports_written = 1 && s.Hub.peers_dropped = 2)
        "good report + two drops";
      Hub.request_stop hub;
      Thread.join runner;
      List.iter Thread.join [ th_bad; th_ugly; th_good ];
      Alcotest.(check string)
        "good peer unperturbed"
        (expected_report ~model ~window cols)
        (read_file (Filename.concat dir "good.report"));
      check_bool "no report for the garbage peer" false
        (Sys.file_exists (Filename.concat dir "evil.report")))

(* A half-open peer (connects, sends a prefix, then goes silent) is
   reaped by the idle timeout. *)
let test_hub_idle_timeout () =
  let rng = Rng.create 41 in
  let model = random_model rng in
  let hub = Hub.create ~model ~window:3 ~idle_timeout:0.2 () in
  let runner = Thread.create Hub.run hub in
  let th, client =
    spawn_peer ~close_after:false hub
      (wire_of [ "peer sleepy"; "tomo-trace v1" ])
  in
  wait_for
    (fun () -> (Hub.stats hub).Hub.peers_dropped = 1)
    "idle peer dropped";
  Hub.request_stop hub;
  Thread.join runner;
  Thread.join th;
  (try Unix.close client with Unix.Unix_error _ -> ());
  check_int "dropped" 1 (Hub.stats hub).Hub.peers_dropped

(* With the drop policy and no draining (the hub loop never runs), a
   blaster overflows its bounded queue and is disconnected. *)
let test_hub_overflow_drop_policy () =
  let rng = Rng.create 43 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let total = 50 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let hub =
    Hub.create ~model ~window:3 ~queue_capacity:2 ~policy:Hub.Drop_peer ()
  in
  let th, _ = spawn_peer hub (trace_frames ~peer:"blaster" ~n_paths cols) in
  wait_for
    (fun () -> (Hub.stats hub).Hub.peers_dropped = 1)
    "overflowing peer dropped";
  Thread.join th;
  (* a post-hoc run must still shut down cleanly *)
  Hub.request_stop hub;
  Hub.run hub;
  check_int "dropped" 1 (Hub.stats hub).Hub.peers_dropped

(* ------------------------------------------------------------------ *)
(* Hub: one solve per report                                           *)
(* ------------------------------------------------------------------ *)

let with_metrics f =
  Tomo_obs.Metrics.set_enabled true;
  Tomo_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tomo_obs.Metrics.set_enabled false;
      Tomo_obs.Metrics.reset ())
    f

let counter name =
  Tomo_obs.Metrics.counter_value (Tomo_obs.Metrics.counter name)

let solves () = (counter "stream_estimates", counter "prob_engine_solves")

let wait_finalized hub what =
  wait_for
    (fun () -> contains ~needle:"\"state\":\"finalized\"" (Hub.status_json hub))
    what

(* The hub pushes every tick and solves only for the reports it writes. *)
let test_hub_solves_once_per_report () =
  let rng = Rng.create 53 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 15 in
  let cols_a = Array.init total (fun _ -> random_column rng n_paths) in
  let cols_b = Array.init total (fun _ -> random_column rng n_paths) in
  let expect_a = expected_report ~model ~window cols_a
  and expect_b = expected_report ~model ~window cols_b in
  with_tmpdir (fun dir ->
      with_metrics (fun () ->
          let s = serve_alpha_beta ~model ~window ~dir cols_a cols_b in
          check_int "ticks" (2 * total) s.Hub.ticks_ingested;
          check_int "stream_ticks" (2 * total) (counter "stream_ticks");
          let estimates, engine_solves = solves () in
          check_int "stream_estimates == reports_written"
            s.Hub.reports_written estimates;
          check_int "prob_engine_solves == reports_written"
            s.Hub.reports_written engine_solves);
      Alcotest.(check string)
        "alpha report unchanged" expect_a
        (read_file (Filename.concat dir "alpha.report"));
      Alcotest.(check string)
        "beta report unchanged" expect_b
        (read_file (Filename.concat dir "beta.report")))

(* ... and selects only for them: pushes never run Algorithm 1, so each
   report's estimate builds the one selection of its peer's lifetime. *)
let test_hub_selects_once_per_report () =
  let rng = Rng.create 71 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 15 in
  let cols_a = Array.init total (fun _ -> random_column rng n_paths) in
  let cols_b = Array.init total (fun _ -> random_column rng n_paths) in
  (* Per-tick estimates re-select more than once on these traces: the
     always-good set moves after the window fills, so an eager re-run
     on push would show here. *)
  List.iter
    (fun (name, cols) ->
      let e = Engine.create ~model ~window () in
      Array.iter (fun c -> ignore (Engine.ingest e (Bitset.copy c))) cols;
      check_bool (name ^ " re-selects under ingest") true
        ((Engine.status e).Engine.st_reselects >= 2))
    [ ("alpha", cols_a); ("beta", cols_b) ];
  with_tmpdir (fun dir ->
      with_metrics (fun () ->
          let s = serve_alpha_beta ~model ~window ~dir cols_a cols_b in
          check_int "reports" 2 s.Hub.reports_written;
          check_int "stream_reselects == reports_written"
            s.Hub.reports_written (counter "stream_reselects")))

(* A peer whose snapshot already holds its whole re-sent trace pushes no
   tick on the new connection, so it owes no report and costs no
   solve. *)
let test_hub_restored_no_new_ticks () =
  let rng = Rng.create 59 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 4 and total = 10 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let wire = trace_frames ~peer:"delta" ~n_paths cols in
  with_tmpdir (fun dir ->
      let report = Filename.concat dir "delta.report" in
      let hub1 =
        Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir ()
      in
      let runner1 = Thread.create Hub.run hub1 in
      let th1, _ = spawn_peer hub1 wire in
      wait_for
        (fun () -> (Hub.stats hub1).Hub.reports_written = 1)
        "first report";
      Hub.request_stop hub1;
      Thread.join runner1;
      Thread.join th1;
      Sys.remove report;
      with_metrics (fun () ->
          let hub2 =
            Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir ()
          in
          let runner2 = Thread.create Hub.run hub2 in
          let th2, _ = spawn_peer hub2 wire in
          wait_finalized hub2 "restored peer finalized";
          Hub.request_stop hub2;
          Thread.join runner2;
          Thread.join th2;
          let s = Hub.stats hub2 in
          check_int "nothing re-ingested" 0 s.Hub.ticks_ingested;
          check_int "no report" 0 s.Hub.reports_written;
          check_bool "no report file" false (Sys.file_exists report);
          check_bool "no solve" true (solves () = (0, 0))))

(* A [max_ticks] cut finalizes snapshots only: no report, no solve. *)
let test_hub_cut_no_solve () =
  let rng = Rng.create 61 in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 3 and total = 12 and cut = 9 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  with_tmpdir (fun dir ->
      with_metrics (fun () ->
          let hub =
            Hub.create ~model ~window ~snapshot_dir:dir ~report_dir:dir
              ~max_ticks:cut ()
          in
          let runner = Thread.create Hub.run hub in
          let th, _ =
            spawn_peer hub (trace_frames ~peer:"eps" ~n_paths cols)
          in
          Thread.join runner;
          Thread.join th;
          let s = Hub.stats hub in
          check_int "cut at the budget" cut s.Hub.ticks_ingested;
          check_int "no report" 0 s.Hub.reports_written;
          check_bool "no solve" true (solves () = (0, 0));
          check_bool "snapshot written" true
            (Sys.file_exists (Filename.concat dir "eps.snap"))))

(* ------------------------------------------------------------------ *)
(* Configuration errors                                                *)
(* ------------------------------------------------------------------ *)

let test_hub_create_rejects () =
  let model = random_model (Rng.create 67) in
  let rejects name f =
    match f () with
    | (_ : Hub.t) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "window 0" (fun () -> Hub.create ~model ~window:0 ());
  rejects "window -1" (fun () -> Hub.create ~model ~window:(-1) ());
  rejects "queue_capacity 0" (fun () ->
      Hub.create ~model ~window:3 ~queue_capacity:0 ());
  rejects "snapshot_every 0" (fun () ->
      Hub.create ~model ~window:3 ~snapshot_every:0 ())

(* Runs the CLI next to this test binary; returns its exit code and
   stderr.  A CLI still running after [timeout] seconds (a daemon that
   bound and is serving) is killed and reported as such. *)
let run_cli ?(timeout = 20.) args =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/tomo_cli.exe")
  in
  let err_path = Filename.temp_file "tomo_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err_path)
    (fun () ->
      let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) null null err
      in
      Unix.close err;
      Unix.close null;
      let t0 = Unix.gettimeofday () in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () -. t0 > timeout ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.failf "tomo_cli %s still running after %gs"
              (String.concat " " args) timeout
        | 0, _ ->
            Thread.delay 0.02;
            wait ()
        | _, Unix.WEXITED c -> c
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 1000 + s
      in
      let code = wait () in
      (code, read_file err_path))

(* Bad ingest flags are refused with one line and the command-line
   error status before the daemon binds its socket. *)
let test_cli_rejects_bad_ingest_flags () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "ingest.sock" in
      List.iter
        (fun (flag, value) ->
          let code, err =
            run_cli
              [ "serve"; "--scale"; "small"; "--ingest"; sock; flag; value ]
          in
          check_int (flag ^ " exit code") 124 code;
          check_bool (flag ^ " names the flag") true
            (contains ~needle:flag err);
          check_int (flag ^ " one-line message") 1
            (List.length
               (List.filter (( <> ) "") (String.split_on_char '\n' err)));
          check_bool (flag ^ " never bound") false (Sys.file_exists sock))
        [
          ("--window", "0");
          ("--ingest-queue", "0");
          ("--snapshot-every", "0");
          ("--ingest-policy", "sometimes");
        ])

(* Replay inputs that cannot be read, are malformed past the header or
   do not fit the model, a batch window that is non-positive or longer
   than the trace, a serve without exactly one stream, a missing
   snapshot and a report that cannot be written get the same one-line
   refusal and status instead of an uncaught exception. *)
let test_cli_rejects_bad_replay_inputs () =
  with_tmpdir (fun dir ->
      let missing = Filename.concat dir "missing.trace"
      and empty = Filename.concat dir "empty.trace"
      and short = Filename.concat dir "short.trace"
      and ragged = Filename.concat dir "ragged.trace"
      and narrow = Filename.concat dir "narrow.trace"
      and archived = Filename.concat dir "archived.obs"
      and missing_snap = Filename.concat dir "missing.snap"
      and unwritable =
        Filename.concat (Filename.concat dir "no-such-dir") "out.report"
      in
      close_out (open_out empty);
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write narrow "tomo-trace v1\npaths 3\ntick 0 101\n";
      let model = [ "--scale"; "small"; "--seed"; "7" ] in
      check_int "gen-trace exit code" 0
        (fst
           (run_cli
              (("gen-trace" :: model) @ [ "--intervals"; "5"; "--out"; short ])));
      (* the short trace with one tick cut short by a path, mid-file *)
      write ragged
        (String.concat "\n"
           (List.mapi
              (fun i line ->
                if i = 4 then String.sub line 0 (String.length line - 1)
                else line)
              (String.split_on_char '\n' (read_file short))));
      (* the short trace's intervals as an archived tomo-observations
         matrix: the model's path count, but not the tomo-trace format *)
      let bits =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "tick"; _; bits ] -> Some bits
            | _ -> None)
          (String.split_on_char '\n' (read_file short))
      in
      let n_paths = String.length (List.hd bits) in
      write archived
        (Printf.sprintf "tomo-observations v1\npaths %d intervals %d\n"
           n_paths (List.length bits)
        ^ String.concat ""
            (List.init n_paths (fun p ->
                 Printf.sprintf "row %d %s\n" p
                   (String.concat ""
                      (List.map (fun b -> String.make 1 b.[p]) bits)))));
      List.iter
        (fun (cmd, args, needle) ->
          let args = (cmd :: model) @ args in
          let what = String.concat " " args in
          let code, err = run_cli args in
          check_int (what ^ " exit code") 124 code;
          check_bool (what ^ " names " ^ needle) true
            (contains ~needle:"tomo_cli: " err && contains ~needle err);
          check_int (what ^ " one-line message") 1
            (List.length
               (List.filter (( <> ) "") (String.split_on_char '\n' err))))
        [
          (* the window is refused before the replay is opened *)
          ("batch-report", [ "--replay"; empty; "--window"; "0" ], "--window");
          ("batch-report", [ "--replay"; missing; "--window"; "40" ], missing);
          ("serve", [ "--replay"; missing; "--window"; "40" ], missing);
          ("batch-report", [ "--replay"; empty; "--window"; "40" ], empty);
          ("batch-report", [ "--replay"; short; "--window"; "40" ], short);
          ("serve", [ "--replay"; short; "--ingest"; missing ], "--ingest");
          ("serve", [], "--replay");
          ("batch-report", [ "--replay"; ragged; "--window"; "2" ], ragged);
          ("serve", [ "--replay"; ragged; "--window"; "2" ], ragged);
          ("batch-report", [ "--replay"; narrow; "--window"; "1" ], narrow);
          ("serve", [ "--replay"; narrow; "--window"; "1" ], narrow);
          ("batch-report", [ "--replay"; archived; "--window"; "5" ], archived);
          ("serve", [ "--replay"; archived; "--window"; "5" ], archived);
          ( "serve",
            [ "--replay"; short; "--snapshot-in"; missing_snap ],
            missing_snap );
          ( "batch-report",
            [ "--replay"; short; "--window"; "5"; "--report-out"; unwritable ],
            unwritable );
        ])

(* ------------------------------------------------------------------ *)
(* Listener: accepts on a real Unix socket                             *)
(* ------------------------------------------------------------------ *)

let test_listener_accepts () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "ingest.sock" in
      let accepted = ref 0 in
      let m = Mutex.create () in
      let listener =
        Listener.start (Tomo_obs.Exporter.Unix_sock path)
          ~on_accept:(fun fd ->
            Mutex.lock m;
            incr accepted;
            Mutex.unlock m;
            Unix.close fd)
      in
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Unix.close fd
      in
      connect ();
      connect ();
      wait_for
        (fun () ->
          Mutex.lock m;
          let n = !accepted in
          Mutex.unlock m;
          n = 2)
        "two accepts";
      Listener.stop listener;
      check_bool "socket file unlinked" false (Sys.file_exists path))

let () =
  Tomo_par.Pool.set_default_jobs 1;
  Alcotest.run "net"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest frame_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest frame_torn_qcheck;
          QCheck_alcotest.to_alcotest frame_bytewise_qcheck;
          Alcotest.test_case "rejections and boundaries" `Quick
            test_frame_rejections;
        ] );
      ( "hub",
        [
          Alcotest.test_case "socket report == direct report" `Quick
            test_hub_matches_direct;
          Alcotest.test_case "kill + snapshot restore is bit-identical"
            `Quick test_hub_kill_restore;
          Alcotest.test_case "garbage peers dropped, good peer isolated"
            `Quick test_hub_garbage_peer_isolated;
          Alcotest.test_case "half-open peer reaped by idle timeout" `Quick
            test_hub_idle_timeout;
          Alcotest.test_case "queue overflow drops under drop policy" `Quick
            test_hub_overflow_drop_policy;
          Alcotest.test_case "one solve per report" `Quick
            test_hub_solves_once_per_report;
          Alcotest.test_case "one selection per report" `Quick
            test_hub_selects_once_per_report;
          Alcotest.test_case "restored peer with no new ticks: no report"
            `Quick test_hub_restored_no_new_ticks;
          Alcotest.test_case "max_ticks cut: no report, no solve" `Quick
            test_hub_cut_no_solve;
        ] );
      ( "config",
        [
          Alcotest.test_case "create rejects non-positive sizes" `Quick
            test_hub_create_rejects;
          Alcotest.test_case "CLI refuses bad ingest flags before binding"
            `Quick test_cli_rejects_bad_ingest_flags;
          Alcotest.test_case "CLI refuses bad replay inputs" `Quick
            test_cli_rejects_bad_replay_inputs;
        ] );
      ( "listener",
        [ Alcotest.test_case "accepts over a Unix socket" `Quick test_listener_accepts ] );
    ]
