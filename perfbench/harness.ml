(* End-to-end benchmark harness: runs one workload in this process and
   writes its raw measurements as JSON for perfbench/run.py to reduce.

     harness.exe --workload W --seed N --seconds S --trace 0|1
                 --out FILE [--instances K] [--scratch DIR]

   The harness composes each workload from the library's public calls,
   times every call from outside and, with --trace 1, records a span
   around each one (see spans.ml) and switches on the library's existing
   metrics and trace spans so the traced run can attribute time to
   layers.  It adds no instrumentation of its own inside the library. *)

module W = Tomo_experiments.Workload
module Fig3 = Tomo_experiments.Fig3
module Fig4 = Tomo_experiments.Fig4
module Run = Tomo_netsim.Run
module Scenario = Tomo_netsim.Scenario
module Trace_io = Tomo_netsim.Trace_io
module Overlay = Tomo_topology.Overlay
module Rng = Tomo_util.Rng
module Bitset = Tomo_util.Bitset
module Engine = Tomo_stream.Engine
module Hub = Tomo_net.Hub
module Frame = Tomo_net.Frame
module Pool = Tomo_par.Pool
module Metrics = Tomo_obs.Metrics
module Trace = Tomo_obs.Trace

let now = Spans.now
let span = Spans.with_span

(* Topologies and congestion scenarios come from this fixed seed (the
   instance `tomo_cli` uses by default); --seed draws the simulated
   measurements.  Measured at medium scale, the work of a fig3 pass
   differs by up to 3x between topology or scenario seeds but by about
   a third between measurement seeds on one topology. *)
let topology_seed = 1

(* Instance k of seed s simulates with seed s + k * 1_000_003, so
   instance 0 of seed 1 is exactly `tomo_cli --seed 1`. *)
let sim_seed ~seed k = seed + (k * 1_000_003)
let window = 100
let stream_intervals = 1200
let n_peers = 2

(* ------------------------------------------------------------------ *)
(* What a run records                                                  *)
(* ------------------------------------------------------------------ *)

type pass = {
  instance : int;
  setup_s : float;
  work_s : float;
  segments : (float * float * float * float) list;  (* see calib.ml *)
  ops : int;
  rss_kb : int;  (* peak resident memory during the pass *)
}

let passes : pass list ref = ref []
let tick_ms : float list ref = ref []
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(* Totals the harness measures itself (writer blocking, hub stats). *)
let extra : (string, float) Hashtbl.t = Hashtbl.create 8

let add_extra k v =
  Hashtbl.replace extra k
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt extra k))

(* Library trace spans, summed by name (traced runs only). *)
let lib_spans : (string, float) Hashtbl.t = Hashtbl.create 32

let rec add_lib_span (s : Trace.span) =
  Hashtbl.replace lib_spans s.Trace.name
    (s.Trace.duration_s
    +. Option.value ~default:0.0 (Hashtbl.find_opt lib_spans s.Trace.name));
  List.iter add_lib_span s.Trace.children

let fail_op what e =
  incr failed;
  if List.length !failures < 20 then
    failures := Printf.sprintf "%s: %s" what (Printexc.to_string e) :: !failures

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := name :: !failures
  end

let unit_prob x = Float.is_finite x && x >= 0.0 && x <= 1.0
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_or_zero = function [] -> 0.0 | xs -> mean xs

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Workload.prepare with the simulation seed split from the topology and
   scenario seed; bit-identical to it when the two are equal. *)
let prepare ~sim_seed (spec : W.spec) =
  let overlay = span "topology.generate" (fun () -> W.generate_overlay spec) in
  let scenario =
    span "netsim.scenario" (fun () ->
        Scenario.make overlay ~kind:spec.W.scenario ~frac:0.1
          ~rng:
            (Rng.split
               (Rng.create ((spec.W.seed * 613) + 17))
               ~label:"scenario"))
  in
  let t =
    match spec.W.t_override with
    | Some t -> t
    | None -> W.t_intervals spec.W.scale
  in
  let dynamics =
    if spec.W.nonstationary then Run.Redraw_every (max 2 (t / 200))
    else Run.Stationary
  in
  let run =
    span "netsim.run" (fun () ->
        Run.run ~scenario ~dynamics ~measurement:spec.W.measurement
          ~t_intervals:t
          ~rng:(Rng.split (Rng.create ((sim_seed * 613) + 17)) ~label:"run"))
  in
  let model = span "workload.model" (fun () -> W.model_of_overlay overlay) in
  let obs = span "workload.observations" (fun () -> W.observations_of_run run) in
  let truth_marginals =
    span "netsim.truth" (fun () ->
        Array.init (Overlay.n_links overlay) (Run.true_link_marginal run))
  in
  { W.spec; overlay; model; run; obs; truth_marginals }

(* Per-link absolute error of an estimate over its potentially congested
   links, split by whether the equation system identifies the link. *)
type split_error = { all : float; ident : float list; fallback : float list }

let split_error truth (r : Tomo.Pc_result.t) =
  let ident = ref [] and fallback = ref [] in
  List.iter
    (fun e ->
      let err = abs_float (r.Tomo.Pc_result.marginals.(e) -. truth.(e)) in
      if r.Tomo.Pc_result.identifiable.(e) then ident := err :: !ident
      else fallback := err :: !fallback)
    (Tomo.Pc_result.potentially_congested r);
  {
    all = mean_or_zero (!ident @ !fallback);
    ident = !ident;
    fallback = !fallback;
  }

(* Averages of the Correlation-complete split over several estimates. *)
let cc_accuracy splits =
  let mae l = mean_or_zero l in
  let coverage s =
    let n = List.length s.ident + List.length s.fallback in
    if n = 0 then 1.0 else float_of_int (List.length s.ident) /. float_of_int n
  in
  [
    ("cc_mae_identifiable", mean (List.map (fun s -> mae s.ident) splits));
    ("cc_mae_fallback", mean (List.map (fun s -> mae s.fallback) splits));
    ("cc_coverage", mean (List.map coverage splits));
  ]

(* ------------------------------------------------------------------ *)
(* fig3-medium: 5 scenarios x 3 Boolean-inference algorithms           *)
(* ------------------------------------------------------------------ *)

(* The per-interval inference of one algorithm, after the cell's own
   set-up (its probability computation). *)
let fig3_infer (w : W.prepared) algorithm =
  let model = w.W.model and obs = w.W.obs in
  match algorithm with
  | Fig3.Sparsity ->
      fun ~congested_paths ~good_paths ->
        span "sparsity.infer" (fun () ->
            Tomo.Sparsity.infer model ~congested_paths ~good_paths)
  | Fig3.Bayesian_independence ->
      let pc =
        span "independence_pc.compute" (fun () ->
            Tomo.Independence_pc.compute model obs)
      in
      fun ~congested_paths ~good_paths ->
        span "bayesian.infer_independence" (fun () ->
            Tomo.Bayesian.infer_independence model
              ~marginals:pc.Tomo.Pc_result.marginals ~congested_paths
              ~good_paths)
  | Fig3.Bayesian_correlation ->
      let _, engine =
        span "correlation_complete.compute" (fun () ->
            Tomo.Correlation_complete.compute model obs)
      in
      fun ~congested_paths ~good_paths ->
        span "bayesian.infer_correlation" (fun () ->
            Tomo.Bayesian.infer_correlation model ~engine ~congested_paths
              ~good_paths)

(* Intervals per unit of work, so that calibration chunks fall inside a
   long cell too. *)
let intervals_per_unit = 50

let fig3_cell (w : W.prepared) algorithm =
  let obs = w.W.obs in
  let t = Tomo.Observations.t_intervals obs in
  let name = Fig3.algorithm_to_string algorithm in
  match
    Calib.timed ~setup:false (fun () ->
        try Ok (fig3_infer w algorithm) with e -> Error e)
  with
  | Error e ->
      attempted := !attempted + t;
      for _ = 1 to t do
        fail_op name e
      done;
      (nan, nan)
  | Ok infer ->
      (* Same accumulation order as Fig3.run_cell, so the cell is
         bit-identical to the figure's. *)
      let detections = ref [] and false_positives = ref [] in
      let one interval =
        incr attempted;
        let congested_paths =
          Tomo.Observations.congested_paths_at obs ~interval
        in
        let good_paths = Tomo.Observations.good_paths_at obs ~interval in
        match infer ~congested_paths ~good_paths with
        | exception e ->
            fail_op (Printf.sprintf "%s interval %d" name interval) e
        | inferred ->
            let actual = w.W.run.Run.link_congested.(interval) in
            detections :=
              Tomo.Metrics.detection_rate ~actual ~inferred :: !detections;
            false_positives :=
              Tomo.Metrics.false_positive_rate ~actual ~inferred
              :: !false_positives
      in
      for u = 0 to ((t + intervals_per_unit - 1) / intervals_per_unit) - 1 do
        Calib.timed ~setup:false (fun () ->
            for i = u * intervals_per_unit
                to min t ((u + 1) * intervals_per_unit) - 1 do
              one i
            done)
      done;
      let m l = Option.value ~default:0.0 (Tomo.Metrics.mean_opt l) in
      (m !detections, m !false_positives)

let fig3_pass ~sim_seed =
  let ops = ref 0 in
  let out = ref [] and bc = ref [] in
  List.iter
    (fun (label, spec) ->
      let w =
        Calib.timed ~setup:true (fun () ->
            span ~layer:false "setup" (fun () -> prepare ~sim_seed spec))
      in
      List.iter
        (fun a ->
          let det, fp = span ~layer:false "cell" (fun () -> fig3_cell w a) in
          check (label ^ " cell in [0,1]") (unit_prob det && unit_prob fp);
          ops := !ops + Tomo.Observations.t_intervals w.W.obs;
          out :=
            Printf.sprintf "fig3 %s | %s | %.17g %.17g" label
              (Fig3.algorithm_to_string a) det fp
            :: !out;
          if a = Fig3.Bayesian_correlation then bc := (det, fp) :: !bc)
        Fig3.algorithms)
    (Fig3.scenarios ~scale:W.Medium ~seed:topology_seed);
  let det = mean (List.map fst !bc) and fp = mean (List.map snd !bc) in
  let acc =
    [
      ("bc_detection", det);
      ("bc_false_positive", fp);
      ("estimate_error", ((1.0 -. det) +. fp) /. 2.0);
    ]
  in
  (!ops, List.rev !out, acc)

(* ------------------------------------------------------------------ *)
(* fig4-paper: Brite and Sparse x 3 scenarios x 3 PC algorithms        *)
(* ------------------------------------------------------------------ *)

let fig4_span = function
  | Fig4.Independence -> "independence_pc.compute"
  | Fig4.Correlation_heuristic -> "correlation_heuristic.compute"
  | Fig4.Correlation_complete -> "correlation_complete.compute"

let fig4_pass ~sim_seed =
  let ops = ref 0 in
  let out = ref [] and cc = ref [] in
  List.iter
    (fun topology ->
      List.iter
        (fun (label, spec) ->
          let w =
            Calib.timed ~setup:true (fun () ->
                span ~layer:false "setup" (fun () -> prepare ~sim_seed spec))
          in
          List.iter
            (fun a ->
              incr ops;
              incr attempted;
              match
                Calib.timed ~setup:false (fun () ->
                    span ~layer:false "cell" (fun () ->
                        span (fig4_span a) (fun () ->
                            try Ok (Fig4.run_pc w a) with e -> Error e)))
              with
              | Error e -> fail_op (Fig4.algorithm_to_string a) e
              | Ok (r, _) ->
                  let mae = Fig4.mean_link_error w r in
                  check (label ^ " cell in [0,1]") (unit_prob mae);
                  out :=
                    Printf.sprintf "fig4 %s | %s | %s | %.17g"
                      (W.topology_to_string topology) label
                      (Fig4.algorithm_to_string a) mae
                    :: !out;
                  if a = Fig4.Correlation_complete then
                    cc := split_error w.W.truth_marginals r :: !cc)
            Fig4.algorithms)
        (Fig4.scenarios ~topology ~scale:W.Paper ~seed:topology_seed))
    [ W.Brite; W.Sparse ];
  let acc =
    ("estimate_error", mean (List.map (fun s -> s.all) !cc))
    :: cc_accuracy !cc
  in
  (!ops, List.rev !out, acc)

(* ------------------------------------------------------------------ *)
(* Streaming inputs shared by stream-replay and ingest-2peer           *)
(* ------------------------------------------------------------------ *)

let stream_spec =
  W.spec ~scale:W.Medium ~seed:topology_seed ~t_override:stream_intervals
    W.Brite Scenario.Random

(* Ticks per unit of work, so that calibration chunks fall inside a
   stream; ingest-2peer's peers send their trace in blocks this long. *)
let ticks_per_unit = 100

type stream_input = {
  columns : Bitset.t array;  (* per tick: bit p set iff path p was good *)
  truth : float array;
  reference : string;
      (* Correlation_complete.compute over the last window, rendered as
         the report the engine must reproduce *)
  reference_split : split_error;
  frames : string array array;
      (* per peer, per block of ticks_per_unit ticks: the framed trace it
         sends, the first block led by its hello and the trace header *)
}

let stream_input ~with_frames ~sim_seed =
  let w = prepare ~sim_seed stream_spec in
  let run = w.W.run in
  let columns =
    Array.init stream_intervals (fun interval ->
        Trace_io.interval_statuses run ~interval)
  in
  let n_paths = w.W.model.Tomo.Model.n_paths in
  let obs = Tomo.Observations.create ~t_intervals:window ~n_paths in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:columns.(stream_intervals - window + i)
  done;
  let result, engine = Tomo.Correlation_complete.compute w.W.model obs in
  let reference =
    Engine.report_to_string ~window
      { Engine.tick = stream_intervals; result; engine }
  in
  let frames =
    if not with_frames then [||]
    else
      let records =
        Array.of_list
          (List.filter (fun l -> String.trim l <> "")
             (String.split_on_char '\n' (Trace_io.to_string run)))
      in
      let header = Array.length records - stream_intervals in
      let blocks = (stream_intervals + ticks_per_unit - 1) / ticks_per_unit in
      Array.init n_peers (fun j ->
          Array.init blocks (fun b ->
              let buf = Buffer.create (1 lsl 17) in
              let first = if b = 0 then 0 else header + (b * ticks_per_unit) in
              let last =
                min stream_intervals ((b + 1) * ticks_per_unit) + header
              in
              if b = 0 then Frame.encode_into buf (Printf.sprintf "peer p%d" j);
              for r = first to last - 1 do
                Frame.encode_into buf records.(r)
              done;
              Buffer.contents buf))
  in
  {
    columns;
    truth = w.W.truth_marginals;
    reference;
    reference_split = split_error w.W.truth_marginals result;
    frames;
  }

(* What `tomo_cli serve` builds before its first tick. *)
let stream_model () =
  let overlay =
    span "topology.generate" (fun () -> W.generate_overlay stream_spec)
  in
  span "workload.model" (fun () -> W.model_of_overlay overlay)

let stream_accuracy split =
  ("estimate_error", split.all) :: cc_accuracy [ split ]

(* ------------------------------------------------------------------ *)
(* stream-replay: one engine, one domain                               *)
(* ------------------------------------------------------------------ *)

let stream_pass (inp : stream_input) =
  let engine =
    Calib.timed ~setup:true (fun () ->
        span ~layer:false "setup" (fun () ->
            let model = stream_model () in
            span "stream.create" (fun () -> Engine.create ~model ~window ())))
  in
  let last = ref None in
  let n = Array.length inp.columns in
  span ~layer:false "ticks" (fun () ->
      for u = 0 to ((n + ticks_per_unit - 1) / ticks_per_unit) - 1 do
        Calib.timed ~setup:false (fun () ->
            for i = u * ticks_per_unit to min n ((u + 1) * ticks_per_unit) - 1 do
              let good = Bitset.copy inp.columns.(i) in
              incr attempted;
              let a = now () in
              match
                span "stream.ingest" (fun () -> Engine.ingest engine good)
              with
              | exception e -> fail_op "Engine.ingest" e
              | Some est ->
                  tick_ms := ((now () -. a) *. 1e3) :: !tick_ms;
                  last := Some est
              | None -> ()
            done)
      done);
  add_extra "stream.reselects"
    (float_of_int (Engine.status engine).Engine.st_reselects);
  let report, split =
    match !last with
    | None -> ("", { all = nan; ident = []; fallback = [] })
    | Some est ->
        ( Engine.report_to_string ~window est,
          split_error inp.truth est.Engine.result )
  in
  check "stream report == batch report" (report = inp.reference);
  ( n,
    [ "stream report " ^ Digest.to_hex (Digest.string report) ],
    stream_accuracy split )

(* ------------------------------------------------------------------ *)
(* ingest-2peer: two socket peers into one hub on a 2-domain pool      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One writer thread per peer, each timing how long its writes block. *)
let write_block (fd, payload, blocked) =
  let b = Bytes.unsafe_of_string payload in
  let len = Bytes.length b and off = ref 0 in
  let chunk = 65536 in
  (try
     while !off < len do
       let t = now () in
       let n = Unix.write fd b !off (min chunk (len - !off)) in
       blocked := !blocked +. (now () -. t);
       off := !off + n
     done
   with Unix.Unix_error _ -> ())

let close_sender fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  Unix.close fd

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ingest_pass ~scratch ~pass_index (inp : stream_input) =
  let report_dir =
    Filename.concat scratch (Printf.sprintf "hub-%d" pass_index)
  in
  Sys.mkdir report_dir 0o755;
  let pool, hub =
    Calib.timed ~setup:true (fun () ->
        span ~layer:false "setup" (fun () ->
            let model = stream_model () in
            let pool = span "pool.create" (fun () -> Pool.create ~jobs:2 ()) in
            ( pool,
              span "hub.create" (fun () ->
                  Hub.create ~pool ~policy:Hub.Block ~report_dir ~model ~window
                    ()) )))
  in
  let expected = n_peers * stream_intervals in
  attempted := !attempted + expected;
  let blocked = Array.init n_peers (fun _ -> ref 0.0) in
  let rec wait until =
    let s = Hub.stats hub in
    if until s || s.Hub.peers_dropped > 0 then s
    else begin
      Thread.delay 0.0005;
      wait until
    end
  in
  let s =
    span ~layer:false "ticks" (fun () ->
        span "hub.ingest" (fun () ->
            let hub_thread = Thread.create Hub.run hub in
            let clients =
              Array.init n_peers (fun _ ->
                  let srv, cli =
                    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
                  in
                  Hub.attach hub srv;
                  cli)
            in
            (* Each block is one unit of work: from its first write to its
               last tick ingested by every peer's engine.  The writers
               stand in for remote senders: they run on a domain of their
               own so that they never hold the runtime lock the hub's
               reader and drain threads share. *)
            Array.iteri
              (fun b _ ->
                Calib.timed ~setup:false (fun () ->
                    Domain.join
                      (Domain.spawn (fun () ->
                           Array.iter Thread.join
                             (Array.mapi
                                (fun j cli ->
                                  Thread.create write_block
                                    (cli, inp.frames.(j).(b), blocked.(j)))
                                clients)));
                    let ticks =
                      n_peers * min stream_intervals ((b + 1) * ticks_per_unit)
                    in
                    ignore (wait (fun s -> s.Hub.ticks_ingested >= ticks))))
              inp.frames.(0);
            (* End of stream: each engine's final report. *)
            let s =
              Calib.timed ~setup:false (fun () ->
                  Array.iter close_sender clients;
                  wait (fun s -> s.Hub.reports_written >= n_peers))
            in
            Hub.request_stop hub;
            Thread.join hub_thread;
            s))
  in
  Pool.shutdown pool;
  failed := !failed + (expected - s.Hub.ticks_ingested);
  check "no peer dropped" (s.Hub.peers_dropped = 0);
  let reports =
    List.init n_peers (fun j ->
        let path = Filename.concat report_dir (Printf.sprintf "p%d.report" j) in
        if Sys.file_exists path then read_file path else "")
  in
  List.iteri
    (fun j r ->
      check
        (Printf.sprintf "peer p%d report == batch report" j)
        (r = inp.reference))
    reports;
  rm_rf report_dir;
  add_extra "net.frames" (float_of_int s.Hub.frames_total);
  add_extra "net.bytes" (float_of_int s.Hub.bytes_total);
  add_extra "net.peers_dropped" (float_of_int s.Hub.peers_dropped);
  add_extra "net.send_blocked_s"
    (Array.fold_left (fun a b -> a +. !b) 0.0 blocked);
  ( s.Hub.ticks_ingested,
    List.map (fun r -> "peer report " ^ Digest.to_hex (Digest.string r)) reports,
    stream_accuracy inp.reference_split )

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Linux resets VmHWM to the current resident size on "5"; where that is
   refused, the per-pass figures are the peak so far. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> go ()
      in
      go ())

(* JSON numbers, with the non-finite spellings Python's json accepts. *)
let jfloat x =
  if Float.is_nan x then "NaN"
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if x > 0.0 then "Infinity"
  else "-Infinity"

let write_result path ~workload ~seed ~trace ~digest ~rows ~accuracy =
  let b = Buffer.create (1 lsl 16) in
  let floats l = String.concat "," (List.map jfloat l) in
  let strings l = String.concat "," (List.map (Printf.sprintf "%S") l) in
  let obj kvs =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (jfloat v)) kvs)
    ^ "}"
  in
  let tbl h = obj (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  Printf.bprintf b
    "{\"workload\":%S,\"seed\":%d,\"trace\":%b,\"attempted\":%d,\"failed\":%d,"
    workload seed trace !attempted !failed;
  Printf.bprintf b "\"failures\":[%s],\"digest\":%S,\"rows\":[%s],"
    (strings (List.rev !failures)) digest (strings rows);
  Printf.bprintf b "\"passes\":[%s],"
    (String.concat ","
       (List.rev_map
          (fun p ->
            Printf.sprintf
              "{\"instance\":%d,\"setup_s\":%s,\"work_s\":%s,\"segments\":[%s],\"ops\":%d,\"rss_kb\":%d}"
              p.instance (jfloat p.setup_s) (jfloat p.work_s)
              (String.concat ","
                 (List.map
                    (fun (a, b, c, d) -> "[" ^ floats [ a; b; c; d ] ^ "]")
                    p.segments))
              p.ops p.rss_kb)
          !passes));
  Printf.bprintf b "\"tick_ms\":[%s],\"accuracy\":%s,\"extra\":%s,"
    (floats (List.rev !tick_ms)) (obj accuracy) (tbl extra);
  Printf.bprintf b "\"lib_spans\":%s,\"calib_chunk_s\":[%s]," (tbl lib_spans)
    (floats (List.rev !Calib.all_chunks));
  let snap = Metrics.snapshot () in
  Printf.bprintf b "\"counters\":%s,\"histogram_sums\":%s,\"spans\":"
    (obj (List.map (fun (k, v) -> (k, float_of_int v)) snap.Metrics.counters))
    (obj
       (List.map
          (fun (k, (h : Metrics.histogram_stats)) -> (k, h.Metrics.sum))
          snap.Metrics.histograms));
  Spans.write_json b;
  Buffer.add_string b "}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" and instances = ref 0 in
  let scratch = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S measure at least this long");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "FILE raw result JSON");
      ("--instances", Arg.Set_int instances, "K distinct inputs per run");
      ("--scratch", Arg.Set_string scratch, "DIR for hub report files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1 --out FILE";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Job counts are pinned per workload, never read from TOMO_JOBS: the
     figure and replay workloads run on one domain, ingest-2peer's hub
     gets its own 2-job pool. *)
  Pool.set_default_jobs 1;
  let default_instances, make_pass =
    match !workload with
    | "fig3-medium" ->
        (5, fun k _ -> fig3_pass ~sim_seed:(sim_seed ~seed:!seed k))
    | "fig4-paper" ->
        (3, fun k _ -> fig4_pass ~sim_seed:(sim_seed ~seed:!seed k))
    | "stream-replay" ->
        ( 5,
          fun k ->
            let inp =
              stream_input ~with_frames:false ~sim_seed:(sim_seed ~seed:!seed k)
            in
            fun _ -> stream_pass inp )
    | "ingest-2peer" ->
        ( 6,
          fun k ->
            let inp =
              stream_input ~with_frames:true ~sim_seed:(sim_seed ~seed:!seed k)
            in
            fun pass_index -> ingest_pass ~scratch:!scratch ~pass_index inp )
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  let k = if !instances > 0 then !instances else default_instances in
  (* Inputs (traces, frames) are generated before anything is timed. *)
  let instance_pass = Array.init k make_pass in
  if !trace = 1 then begin
    Spans.enabled := true;
    Metrics.set_enabled true;
    Trace.set_enabled true
  end
  else begin
    (* Untraced runs give the end-to-end metrics, scaled by host speed
       (calib.ml); the first chunks warm the reference computation up. *)
    Calib.enabled := true;
    ignore (Calib.chunks 3);
    Calib.all_chunks := []
  end;
  let outputs = Array.make k None in
  let acc = Array.make k [] in
  let start = now () in
  let p = ref 0 in
  (* Every input once, then repeats while the next pass still fits in
     --seconds. *)
  let longest = ref 0.0 in
  while !p < k || now () -. start +. !longest <= !seconds do
    let i = !p mod k in
    let pass_start = now () in
    Spans.current_run := !p;
    reset_peak_rss ();
    Calib.start_pass ();
    let ops, out, a =
      span ~layer:false "pass" (fun () -> instance_pass.(i) !p)
    in
    Calib.finish_pass ();
    let rss_kb = peak_rss_kb () in
    passes :=
      {
        instance = i;
        setup_s = !Calib.setup_s;
        work_s = !Calib.work_s;
        segments = List.rev !Calib.segments;
        ops;
        rss_kb;
      }
      :: !passes;
    List.iter add_lib_span (Trace.take_roots ());
    (match outputs.(i) with
    | None ->
        outputs.(i) <- Some out;
        acc.(i) <- a
    | Some first -> check "repeated pass gives identical output" (first = out));
    longest := Float.max !longest (now () -. pass_start);
    incr p
  done;
  let accuracy =
    List.map
      (fun (key, _) ->
        (key, mean (Array.to_list (Array.map (fun a -> List.assoc key a) acc))))
      acc.(0)
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.concat_map (fun o -> Option.value ~default:[] o)
               (Array.to_list outputs))))
  in
  write_result !out ~workload:!workload ~seed:!seed ~trace:(!trace = 1) ~digest
    ~rows:(Option.value ~default:[] outputs.(0))
    ~accuracy
