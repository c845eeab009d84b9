(** Per-route solve-latency histograms with logarithmic buckets.

    The serve daemon records every verdict-bearing response under the
    route that produced it, into a histogram of powers-of-two
    millisecond buckets: bucket 0 counts solves under 1 ms, bucket [i]
    counts latencies in [[2^(i-1), 2^i)] ms, and the last bucket absorbs
    everything at or above ~16 s.  Log-scaled buckets keep the table
    tiny while still separating the cache-warm microsecond hits from the
    budget-bound stragglers — and with portfolio racing enabled, the
    per-route split shows directly which routes win and how fast.

    All operations are mutex-guarded; one instance is shared by all
    request threads.  Recording also bumps a
    [serve.latency.<route>.le_<bound>ms] telemetry counter per
    observation, so the histograms survive into the [--metrics-json]
    document alongside the in-band [stats] op. *)

type t

val create : unit -> t

val record : t -> route:string -> float -> unit
(** [record t ~route ms] files one observation of [ms] milliseconds
    under [route].  Negative and NaN inputs clamp to bucket 0. *)

val to_json : t -> Json.t
(** An object keyed by route name, each value carrying ["count"] (total
    observations) and ["buckets"] (an object of the non-empty buckets,
    [le_<bound>ms] or [le_infms] for the overflow bucket, in ascending
    order).  Routes appear sorted by name. *)
