module Obs = Tomo_obs

type rref = { reduced : Matrix.t; pivot_cols : int list; rank : int }

let default_tol = 1e-10

let c_dense = Obs.Metrics.counter "dense_rref_calls"

(* The elimination runs directly on the flat row-major buffer: each row
   is a contiguous stride-[nc] slice addressed by its base offset, so
   the hot loops stream unboxed floats with no per-element bounds
   checks.  The floating-point operation sequence is exactly the one
   the boxed reference kernel performs (same pivoting, same order), so
   results are bit-identical — test/test_differential.ml holds that
   line against the naive float-array-array oracle. *)
let rref_dense ?(tol = default_tol) m =
  Obs.Metrics.incr c_dense;
  let a = Matrix.copy m in
  let nr = Matrix.rows a and nc = Matrix.cols a in
  let d = Matrix.buffer a in
  let scale = max 1.0 (Matrix.max_abs a) in
  let threshold = tol *. scale in
  let pivots = ref [] in
  let r = ref 0 in
  let j = ref 0 in
  while !r < nr && !j < nc do
    (* Partial pivoting: bring the largest entry of column !j (rows >= !r)
       to the pivot position. *)
    let best = ref !r in
    let best_abs = ref (abs_float (Array.unsafe_get d ((!r * nc) + !j))) in
    for i = !r + 1 to nr - 1 do
      let v = abs_float (Array.unsafe_get d ((i * nc) + !j)) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs <= threshold then begin
      (* Numerically zero column below row !r: clean it and move on. *)
      for i = !r to nr - 1 do
        Array.unsafe_set d ((i * nc) + !j) 0.0
      done;
      incr j
    end
    else begin
      Matrix.swap_rows a !r !best;
      let rbase = !r * nc in
      let pivot = Array.unsafe_get d (rbase + !j) in
      for k = 0 to nc - 1 do
        Array.unsafe_set d (rbase + k)
          (Array.unsafe_get d (rbase + k) /. pivot)
      done;
      for i = 0 to nr - 1 do
        if i <> !r then begin
          let ibase = i * nc in
          let factor = Array.unsafe_get d (ibase + !j) in
          if factor <> 0.0 then
            for k = 0 to nc - 1 do
              Array.unsafe_set d (ibase + k)
                (Array.unsafe_get d (ibase + k)
                -. (factor *. Array.unsafe_get d (rbase + k)))
            done
        end
      done;
      pivots := !j :: !pivots;
      incr r;
      incr j
    end
  done;
  { reduced = a; pivot_cols = List.rev !pivots; rank = !r }

let rref_sparse ?tol m =
  let { Sparse_gauss.reduced; pivot_cols; rank } =
    Sparse_gauss.rref ?tol (Sparse.of_matrix m)
  in
  { reduced = Sparse.to_matrix reduced; pivot_cols; rank }

let rank ?tol m = (rref_dense ?tol m).rank
