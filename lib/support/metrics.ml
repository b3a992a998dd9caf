(** Binary-classification metrics used by every evaluation table. *)

type confusion = {
  mutable tp : int;
  mutable fp : int;
  mutable tn : int;
  mutable fn : int;
}

let empty () = { tp = 0; fp = 0; tn = 0; fn = 0 }

let record c ~truth ~predicted =
  match (truth, predicted) with
  | true, true -> c.tp <- c.tp + 1
  | false, true -> c.fp <- c.fp + 1
  | false, false -> c.tn <- c.tn + 1
  | true, false -> c.fn <- c.fn + 1

let merge a b =
  { tp = a.tp + b.tp; fp = a.fp + b.fp; tn = a.tn + b.tn; fn = a.fn + b.fn }

let total c = c.tp + c.fp + c.tn + c.fn

let precision c =
  if c.tp + c.fp = 0 then 0.0 else float_of_int c.tp /. float_of_int (c.tp + c.fp)

let recall c =
  if c.tp + c.fn = 0 then 0.0 else float_of_int c.tp /. float_of_int (c.tp + c.fn)

let f1 c =
  let p = precision c and r = recall c in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let pct x = 100.0 *. x

(** "100%" / "98.4%" style rendering used in the paper's tables. *)
let pct_string x =
  let v = pct x in
  if Float.abs (v -. Float.round v) < 0.05 then Printf.sprintf "%.0f%%" v
  else Printf.sprintf "%.1f%%" v

let row_string c =
  Printf.sprintf "P=%s R=%s F1=%s" (pct_string (precision c))
    (pct_string (recall c)) (pct_string (f1 c))

(** Fixed-bucket latency histogram used by the campaign orchestrator to
    report per-target latency percentiles.  Buckets are geometric powers
    of two over seconds, from 100 µs up to ~100 s, so merging histograms
    from different workers is exact (identical bounds everywhere). *)
module Histogram = struct
  let bucket_base = 1e-4 (* seconds *)
  let bucket_count = 21 (* last finite bound: 1e-4 * 2^20 ≈ 105 s *)

  (* Upper bound of bucket [i]; samples above the last bound land in the
     overflow bucket. *)
  let bound i = bucket_base *. (2.0 ** float_of_int (i + 1))

  type t = {
    counts : int array;  (** [bucket_count] finite buckets + 1 overflow *)
    mutable n : int;
    mutable sum : float;
    mutable max : float;
  }

  let create () =
    { counts = Array.make (bucket_count + 1) 0; n = 0; sum = 0.0; max = 0.0 }

  let bucket_of (v : float) =
    let rec find i =
      if i >= bucket_count then bucket_count
      else if v <= bound i then i
      else find (i + 1)
    in
    find 0

  let add t (v : float) =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v > t.max then t.max <- v

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  (** Per-bucket (upper bound, count) pairs, overflow last with an
      infinite bound — the exact shape a Prometheus [le]-labelled
      exposition needs (cumulated by the renderer). *)
  let buckets t =
    Array.to_list
      (Array.mapi
         (fun i c ->
           ((if i >= bucket_count then Float.infinity else bound i), c))
         t.counts)

  (** Exact merge: bucket bounds are identical across instances. *)
  let merge a b =
    let t = create () in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.n <- a.n + b.n;
    t.sum <- a.sum +. b.sum;
    t.max <- Float.max a.max b.max;
    t

  (** [percentile t p] is an upper bound on the [p]-th percentile sample
      ([p] in [0,100]): the bound of the first bucket whose cumulative
      count reaches the rank.  The overflow bucket reports the observed
      maximum. *)
  let percentile t (p : float) =
    if t.n = 0 then 0.0
    else begin
      let p = Float.min 100.0 (Float.max 0.0 p) in
      let rank =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
        if r < 1 then 1 else r
      in
      let rec walk i acc =
        if i > bucket_count then t.max
        else
          let acc = acc + t.counts.(i) in
          if acc >= rank then
            if i = bucket_count then t.max else Float.min (bound i) t.max
          else walk (i + 1) acc
      in
      walk 0 0
    end

  (* Compact single-token rendering for wire protocols: no spaces or
     tabs, so it can ride inside a tab-separated grammar field. *)
  let to_wire t =
    Printf.sprintf "n:%d,mean:%.6f,p50:%.6f,p90:%.6f,p99:%.6f,max:%.6f" t.n
      (mean t) (percentile t 50.0) (percentile t 90.0) (percentile t 99.0)
      t.max

  let to_string t =
    if t.n = 0 then "latency: no samples"
    else
      Printf.sprintf
        "latency: n=%d mean=%.4fs p50<=%.4fs p90<=%.4fs p99<=%.4fs max=%.4fs"
        t.n (mean t) (percentile t 50.0) (percentile t 90.0)
        (percentile t 99.0) t.max
end
