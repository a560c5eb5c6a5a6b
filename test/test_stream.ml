(* Tests for the online sliding-window engine: window ring mechanics,
   snapshot round-trips (save → restore → continue must be bit-identical
   to a run that never stopped), corruption rejection, replay-reader
   diagnostics, and the headline acceptance property — windowed
   streaming estimates exactly equal the batch pipeline over the same
   intervals of a simulated Netsim trace. *)

module Bitset = Tomo_util.Bitset
module Rng = Tomo_util.Rng
module Window = Tomo_stream.Window
module Snapshot = Tomo_stream.Snapshot
module Source = Tomo_stream.Source
module Engine = Tomo_stream.Engine
module W = Tomo_experiments.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_failure_containing name needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "%s: %S not in %S" name needle msg

(* ------------------------------------------------------------------ *)
(* Random tiny models and streams (for the qcheck properties)          *)
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

(* Everything an estimate exposes, as a structurally comparable value;
   float arrays compare bit-for-bit under (=) here, which is the point. *)
let fingerprint = function
  | None -> None
  | Some (e : Engine.estimate) ->
      Some
        ( e.Engine.tick,
          Array.copy e.Engine.result.Tomo.Pc_result.marginals,
          Array.copy e.Engine.result.Tomo.Pc_result.identifiable,
          e.Engine.result.Tomo.Pc_result.n_rows,
          e.Engine.result.Tomo.Pc_result.n_vars )

(* ------------------------------------------------------------------ *)
(* Window ring mechanics                                               *)
(* ------------------------------------------------------------------ *)

let test_window_ring () =
  let rng = Rng.create 42 in
  let n_paths = 7 and capacity = 5 and total = 17 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let w = Window.create ~capacity ~n_paths in
  check_bool "empty" false (Window.is_full w);
  check_int "occupancy 0" 0 (Window.occupancy w);
  for i = 0 to total - 1 do
    let evicted = Window.push w (Bitset.copy cols.(i)) in
    check_int "ticks" (i + 1) (Window.ticks w);
    check_int "occupancy" (min (i + 1) capacity) (Window.occupancy w);
    (match evicted with
    | Some b ->
        check_bool "evicts in FIFO order" true
          (i >= capacity && Bitset.equal b cols.(i - capacity))
    | None -> check_bool "no eviction during warm-up" true (i < capacity));
    (* always_good_paths == intersection of the filled columns *)
    let expect = Bitset.create n_paths in
    Bitset.set_all expect;
    for j = max 0 (i + 1 - capacity) to i do
      Bitset.inter_into ~into:expect cols.(j)
    done;
    check_bool "always_good == column intersection" true
      (Bitset.equal (Window.always_good_paths w) expect)
  done

(* ------------------------------------------------------------------ *)
(* qcheck: save → restore → continue is bit-identical                  *)
(* ------------------------------------------------------------------ *)

let prop_snapshot_resume seed =
  let rng = Rng.create seed in
  let model = random_model rng in
  let n_paths = model.Tomo.Model.n_paths in
  let window = 2 + Rng.int rng 4 in
  let total = window + 1 + Rng.int rng 10 in
  let cut = Rng.int rng (total + 1) in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  (* Run A: never interrupted. *)
  let a = Engine.create ~model ~window () in
  let expected =
    Array.init total (fun i ->
        fingerprint (Engine.ingest a (Bitset.copy cols.(i))))
  in
  (* Run B: killed after [cut] ticks, serialized, restored, continued. *)
  let b = Engine.create ~model ~window () in
  let ok = ref true in
  for i = 0 to cut - 1 do
    if fingerprint (Engine.ingest b (Bitset.copy cols.(i))) <> expected.(i)
    then ok := false
  done;
  let restored =
    Engine.of_snapshot ~model
      (Snapshot.of_string (Snapshot.to_string (Engine.snapshot b)))
  in
  if Engine.ticks restored <> cut then ok := false;
  (* current() after a restore must agree with run A's estimate there *)
  if cut > 0 && fingerprint (Engine.current restored) <> expected.(cut - 1)
  then ok := false;
  for i = cut to total - 1 do
    if
      fingerprint (Engine.ingest restored (Bitset.copy cols.(i)))
      <> expected.(i)
    then ok := false
  done;
  !ok

let snapshot_resume_qcheck =
  QCheck.Test.make ~count:40
    ~name:"snapshot round-trip continues bit-identically"
    QCheck.(int_range 0 100_000)
    prop_snapshot_resume

(* ------------------------------------------------------------------ *)
(* Snapshot corruption rejection                                       *)
(* ------------------------------------------------------------------ *)

let sample_snapshot () =
  let rng = Rng.create 9 in
  let model = Tomo.Toy.case1 () in
  let e = Engine.create ~model ~window:3 () in
  for _ = 1 to 5 do
    ignore (Engine.ingest e (random_column rng model.Tomo.Model.n_paths))
  done;
  Snapshot.to_string (Engine.snapshot e)

let test_snapshot_corruption () =
  let s = sample_snapshot () in
  (* sanity: the pristine string parses *)
  ignore (Snapshot.of_string s);
  (* flip one status bit inside a column line *)
  let col_at =
    let rec find i =
      if i + 4 > String.length s then Alcotest.fail "no col line"
      else if String.sub s i 4 = "col " then i
      else find (i + 1)
    in
    find 0
  in
  let bit_at =
    let rec find i =
      match s.[i] with
      | '0' | '1' -> i
      | _ -> find (i + 1)
    in
    find (col_at + 6)
  in
  let flipped = Bytes.of_string s in
  Bytes.set flipped bit_at (if s.[bit_at] = '1' then '0' else '1');
  check_failure_containing "bit flip" "corrupted snapshot" (fun () ->
      Snapshot.of_string (Bytes.to_string flipped));
  (* truncation: a torn write that lost the tail *)
  check_failure_containing "truncated" "corrupted snapshot" (fun () ->
      Snapshot.of_string (String.sub s 0 (String.length s / 2)));
  (* tampered checksum trailer *)
  let tampered =
    let b = Bytes.of_string s in
    let i = String.length s - 2 in
    Bytes.set b i (if s.[i] = '0' then '1' else '0');
    Bytes.to_string b
  in
  check_failure_containing "bad checksum" "corrupted snapshot" (fun () ->
      Snapshot.of_string tampered);
  (* empty file (e.g. crash before any write) *)
  check_failure_containing "empty" "corrupted snapshot" (fun () ->
      Snapshot.of_string "")

(* ------------------------------------------------------------------ *)
(* Replay reader: diagnostics and fast-forward                         *)
(* ------------------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "tomo_stream_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_trace_source_errors () =
  (* ragged tick line: 2 status chars for 3 paths, on line 4 *)
  with_temp_file "tomo-trace v1\npaths 3\ntick 0 101\ntick 1 10\n"
    (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () ->
          ignore (Source.next src);
          check_failure_containing "ragged tick" (path ^ ":4") (fun () ->
              Source.next src)));
  (* bad header fails eagerly, naming line 1 *)
  with_temp_file "bogus v9\n" (fun path ->
      check_failure_containing "bad header" (path ^ ":1") (fun () ->
          Source.of_trace_file path));
  (* out-of-order tick index *)
  with_temp_file "tomo-trace v1\npaths 2\ntick 1 10\n" (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () ->
          check_failure_containing "out-of-order tick" (path ^ ":3")
            (fun () -> Source.next src)))

(* The replay reader accepts tomo-trace v1 only: an empty, blank-only
   or alien-header file — an archived tomo-observations matrix included —
   fails at open time naming the path, line 1 and the expected header. *)
let test_replay_sniffing () =
  with_temp_file "tomo-trace v1\npaths 2\ntick 0 10\n" (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () -> check_int "trace opens" 2 (Source.n_paths src)));
  let expect_rejected name contents =
    with_temp_file contents (fun path ->
        List.iter
          (fun needle ->
            check_failure_containing name needle (fun () ->
                Source.of_trace_file path))
          [ path ^ ":1:"; "tomo-trace v1" ])
  in
  expect_rejected "empty file" "";
  expect_rejected "blank-only file" "\n\n";
  expect_rejected "alien header" "csv,of,course\n1,2,3\n";
  expect_rejected "archived observations"
    "tomo-observations v1\npaths 2 intervals 1\nrow 0 1\nrow 1 0\n"

let test_source_drop () =
  let rng = Rng.create 5 in
  let n_paths = 4 and total = 8 in
  let cols = Array.init total (fun _ -> random_column rng n_paths) in
  let trace =
    Printf.sprintf "tomo-trace v1\npaths %d\n" n_paths
    ^ String.concat ""
        (List.mapi
           (fun i c ->
             Printf.sprintf "tick %d %s\n" i
               (String.init n_paths (fun p ->
                    if Bitset.get c p then '1' else '0')))
           (Array.to_list cols))
  in
  with_temp_file trace (fun path ->
      let src = Source.of_trace_file path in
      Fun.protect
        ~finally:(fun () -> Source.close src)
        (fun () ->
          check_int "drop skips what it can" 3 (Source.drop src 3);
          (match Source.next src with
          | Some c ->
              check_bool "resumes at the right interval" true
                (Bitset.equal c cols.(3))
          | None -> Alcotest.fail "stream ended early");
          check_int "drop past the end reports the shortfall" 4
            (Source.drop src 10);
          check_bool "then the stream is dry" true (Source.next src = None)))

(* ------------------------------------------------------------------ *)
(* Acceptance: streaming == batch on a simulated Netsim trace          *)
(* ------------------------------------------------------------------ *)

let test_streaming_equals_batch () =
  let window = 40 and total = 60 in
  let w =
    W.prepare
      (W.spec ~scale:W.Small ~seed:3 ~t_override:total W.Brite
         Tomo_netsim.Scenario.Random)
  in
  let model = w.W.model in
  (* Stream the run through Trace_io text and the replay reader, exactly
     as `tomo_cli serve --replay` would. *)
  let last =
    with_temp_file (Tomo_netsim.Trace_io.to_string w.W.run) (fun path ->
        let src = Source.of_trace_file path in
        Fun.protect
          ~finally:(fun () -> Source.close src)
          (fun () ->
            let engine = Engine.create ~model ~window () in
            Source.fold src (fun last col -> Engine.ingest engine col |> Option.fold ~none:last ~some:Option.some) None))
  in
  let est =
    match last with
    | Some e -> e
    | None -> Alcotest.fail "window never filled"
  in
  check_int "saw the whole trace" total est.Engine.tick;
  (* Batch pipeline over the same (final) window of intervals. *)
  let obs =
    Tomo.Observations.create ~t_intervals:window
      ~n_paths:model.Tomo.Model.n_paths
  in
  for i = 0 to window - 1 do
    Tomo.Observations.set_interval_statuses obs ~interval:i
      ~good:
        (Tomo_netsim.Trace_io.interval_statuses w.W.run
           ~interval:(total - window + i))
  done;
  let batch, _ = Tomo.Correlation_complete.compute model obs in
  let s = est.Engine.result in
  check_int "rows" batch.Tomo.Pc_result.n_rows s.Tomo.Pc_result.n_rows;
  check_int "vars" batch.Tomo.Pc_result.n_vars s.Tomo.Pc_result.n_vars;
  check_bool "identifiable sets equal" true
    (batch.Tomo.Pc_result.identifiable = s.Tomo.Pc_result.identifiable);
  (* the acceptance bound is 1e-9; the design claim is bit-equality *)
  Array.iteri
    (fun e m ->
      if m <> s.Tomo.Pc_result.marginals.(e) then
        Alcotest.failf "link %d: batch %.17g <> stream %.17g" e m
          s.Tomo.Pc_result.marginals.(e))
    batch.Tomo.Pc_result.marginals;
  (* and the diffable report rendering agrees too *)
  let batch_est =
    { Engine.tick = est.Engine.tick; result = batch; engine = snd (Tomo.Correlation_complete.compute model obs) }
  in
  Alcotest.(check string)
    "tomo-report renders identically"
    (Engine.report_to_string ~window batch_est)
    (Engine.report_to_string ~window est)

(* ------------------------------------------------------------------ *)
(* push + current == ingest                                             *)
(* ------------------------------------------------------------------ *)

(* On a medium Netsim trace that crosses re-selections, pushing k ticks
   and then asking for the current estimate must equal the k-th ingest
   result bit for bit, for every k — also on an engine restored from a
   snapshot mid-trace. *)
let test_push_current_parity () =
  let window = 20 and total = 100 and cut = 70 in
  let w =
    W.prepare
      (W.spec ~scale:W.Medium ~seed:1 ~t_override:total W.Brite
         Tomo_netsim.Scenario.Random)
  in
  let model = w.W.model in
  let cols =
    Array.init total (fun interval ->
        Tomo_netsim.Trace_io.interval_statuses w.W.run ~interval)
  in
  let a = Engine.create ~model ~window () in
  let expected =
    Array.map (fun c -> fingerprint (Engine.ingest a (Bitset.copy c))) cols
  in
  let check_tick name k got =
    if got <> expected.(k) then Alcotest.failf "%s: tick %d differs" name (k + 1)
  in
  (* push, then current, at every tick *)
  let b = Engine.create ~model ~window () in
  let snap = ref "" in
  Array.iteri
    (fun k c ->
      Engine.push b (Bitset.copy c);
      check_tick "push+current" k (fingerprint (Engine.current b));
      if k + 1 = cut then snap := Snapshot.to_string (Engine.snapshot b))
    cols;
  let restore () = Engine.of_snapshot ~model (Snapshot.of_string !snap) in
  let st_a = Engine.status a and st_b = Engine.status b in
  check_bool "trace crosses a re-selection" true (st_a.Engine.st_reselects >= 2);
  check_int "push re-selects on the same ticks" st_a.Engine.st_reselects
    st_b.Engine.st_reselects;
  (* pushes only, one estimate at the end *)
  let c = Engine.create ~model ~window () in
  Array.iter (fun col -> Engine.push c (Bitset.copy col)) cols;
  check_tick "push only" (total - 1) (fingerprint (Engine.current c));
  check_int "one estimate" 1 (Engine.status c).Engine.st_estimates;
  (* pushes never run Algorithm 1: the one estimate builds the one
     selection, however often the always-good set moved before it *)
  check_int "push only: one selection" 1 (Engine.status c).Engine.st_reselects;
  (* restored mid-trace, pushes only, one estimate at the end *)
  let e = restore () in
  for k = cut to total - 1 do
    Engine.push e (Bitset.copy cols.(k))
  done;
  check_tick "restored push only" (total - 1) (fingerprint (Engine.current e));
  check_int "restored push only: one selection" 1
    (Engine.status e).Engine.st_reselects;
  (* restored mid-trace, then push+current *)
  let d = restore () in
  check_tick "restored current" (cut - 1) (fingerprint (Engine.current d));
  for k = cut to total - 1 do
    Engine.push d (Bitset.copy cols.(k));
    check_tick "restored push+current" k (fingerprint (Engine.current d))
  done

let () =
  Tomo_par.Pool.set_default_jobs 1;
  Alcotest.run "stream"
    [
      ( "window",
        [ Alcotest.test_case "ring mechanics" `Quick test_window_ring ] );
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest snapshot_resume_qcheck;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
        ] );
      ( "source",
        [
          Alcotest.test_case "trace diagnostics" `Quick
            test_trace_source_errors;
          Alcotest.test_case "replay format sniffing" `Quick
            test_replay_sniffing;
          Alcotest.test_case "drop fast-forward" `Quick test_source_drop;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "streaming == batch on a Netsim trace" `Slow
            test_streaming_equals_batch;
          Alcotest.test_case "push + current == ingest on a medium trace"
            `Slow test_push_current_parity;
        ] );
    ]
