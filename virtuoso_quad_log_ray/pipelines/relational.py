"""Relational operator coverage over the TPC-H-ish testdata tables.

These exercise the generic engine surface the reference's SURVEY operators
map onto — filters (F1-F5), groupby aggregations (A1-A6), sort/limit idioms
(G7), hash joins (J), and event-stream windowing/watermark semantics (T7) —
on the driver's relational tables, each with a lockstep DuckDB oracle.

Float aggregates are emitted as integers (cents / ppm) so the driver's
value-hash never compares raw float formatting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.numerics import half_away_int64, scaled_int_array
from virtuoso_quad_log_ray.stages.shuffle import (
    arrow_join,
    bucket_aggregate,
    by_bucket,
    co_bucket,
    merge_buckets,
    top_k,
)


# --- Q1-style scan + groupby aggregate (A1 counters analog) ---------------

def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """lineitem pricing summary: filter on ship date, group by flag/status,
    Sum/Mean/Count aggregates (pre-aggregated per block before the
    ``bucket_aggregate`` exchange)."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    import datetime

    cutoff = pa.scalar(datetime.datetime(1998, 9, 2), type=pa.timestamp("us"))

    def prep(b: pa.Table) -> pa.Table:
        # Round to integer cents/ppm PER ROW before aggregating: float sums
        # accumulate in nondeterministic order across blocks, so a float
        # Sum + round at the end can differ from the oracle by 1 cent at
        # scale. Integer sums are exact and associative in both engines.
        # Filter compares TIMESTAMPS (string renderings differ per engine).
        # Then PRE-AGGREGATE inside the block (pyarrow C++ group_by): only
        # ~|groups| partial rows per block reach the shuffle.
        b = b.filter(pc.less_equal(pc.cast(b["l_shipdate"], pa.timestamp("us")), cutoff))
        rows = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_c": _cents(b["l_quantity"]),
                "price_c": _cents(b["l_extendedprice"]),
                "disc_ppm": _ppm(b["l_discount"]),
            }
        )
        part = rows.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("price_c", "sum"), ("disc_ppm", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "l_returnflag": part["l_returnflag"],
                "l_linestatus": part["l_linestatus"],
                "qty_c": part["qty_c_sum"],
                "price_c": part["price_c_sum"],
                "disc_ppm": part["disc_ppm_sum"],
                "n": pc.cast(part["count_all"], pa.int64()),
            }
        )

    agg = bucket_aggregate(
        li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        [("qty_c", "sum"), ("price_c", "sum"), ("disc_ppm", "sum"), ("n", "sum")],
    )

    def shape(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch["n_sum"], pa.int64())
        sum_disc = pc.cast(batch["disc_ppm_sum"], pa.float64()).to_numpy(zero_copy_only=False)
        n_np = n.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty_c": pc.cast(batch["qty_c_sum"], pa.int64()),
                "sum_price_c": pc.cast(batch["price_c_sum"], pa.int64()),
                "avg_disc_ppm": pa.array(half_away_int64(sum_disc / n_np)),
                "n_rows": n,
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


def _cents(arr) -> pa.Array:
    return scaled_int_array(arr, 100)


def _ppm(arr) -> pa.Array:
    return scaled_int_array(arr, 1e6)


PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(100 * l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty_c,
       CAST(sum(CAST(round(100 * l_extendedprice) AS BIGINT)) AS BIGINT) AS sum_price_c,
       CAST(round(sum(CAST(round(1e6 * l_discount) AS BIGINT)) / count(*)) AS BIGINT) AS avg_disc_ppm,
       count(*) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
""".strip()


# --- hash-join chain + aggregate (J analog) --------------------------------

def revenue_by_nation(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """orders ⋈ customer ⋈ nation -> revenue per nation. customer/nation are
    small sides: broadcast via ray.put into a map_batches lookup (no shuffle
    join for the dimension tables — the SURVEY's broadcast-small-side rule)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    # pre-resolve customer -> nation NAME on the driver (dimension-sized),
    # broadcast two parallel arrays for a vectorized index_in lookup
    c_keys = cust["c_custkey"].combine_chunks()
    c_names = pc.take(
        nat["n_name"].combine_chunks(),
        pc.index_in(cust["c_nationkey"].combine_chunks(), nat["n_nationkey"].combine_chunks()),
    )
    lookup_ref = ray.put((c_keys, c_names))

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    class AttachNation:
        def __init__(self):
            self._keys, self._names = ray.get(lookup_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            names = pc.take(self._names, pc.index_in(batch["o_custkey"], self._keys))
            # per-row cents before the Sum (exact integer aggregation)
            return pa.table({"n_name": names, "price_c": _cents(batch["o_totalprice"])})

    from virtuoso_quad_log_ray.stages.shuffle import actor_kwargs

    joined = orders.map_batches(AttachNation, **actor_kwargs(max_pool=4))
    agg = bucket_aggregate(joined, ["n_name"], [("price_c", "sum"), ("price_c", "count")])

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch["n_name"],
                "revenue_c": pc.cast(batch["price_c_sum"], pa.int64()),
                "n_orders": pc.cast(batch["price_c_count"], pa.int64()),
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


REVENUE_BY_NATION_SQL = """
SELECT n.n_name,
       CAST(sum(CAST(round(100 * o.o_totalprice) AS BIGINT)) AS BIGINT) AS revenue_c,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
""".strip()


# --- sort + limit (G7 analog) ---------------------------------------------

def top_orders(sf_dir: str, *, n: int = 20) -> ray.data.Dataset:
    """Top-N orders by totalprice (deterministic tie-break on o_orderkey).
    Distributed sort + limit: Ray's sort is a range-partitioned shuffle and
    the limit short-circuits block consumption."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    top = orders.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(n)
    return top.map_batches(
        lambda b: pa.table({"o_orderkey": b["o_orderkey"], "price_c": _cents(b["o_totalprice"])}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def top_orders_sql(n: int = 20) -> str:
    return (
        "SELECT o_orderkey, CAST(round(100 * o_totalprice) AS BIGINT) AS price_c\n"
        f"FROM orders ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT {n}"
    )


# --- event-stream windowed aggregate (T7 watermark analog) ----------------

def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window per event_type: count + sum(value). Window
    assignment is a vectorized floor_temporal inside map_batches, which
    then PRE-AGGREGATES the block with pyarrow's C++ group_by — an
    hour-contiguous block collapses to ~|hours x types| partial rows, so
    only partials cross the exchange (the same map-side-combine shape as
    pricing_summary). The final merge is shuffle.bucket_aggregate keyed on
    the int64 epoch-hour: Ray's native Aggregate combined the raw rows in
    Python at ~40-100us/row (measured: 4.1 s remote wall for a 100k-row
    table, the r3 bench regression's floor), the bucketed C++ combine is
    O(partials) vectorized."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def window(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"), pa.timestamp("s"))
        rows = pa.table(
            {
                "hour": pc.cast(hour, pa.string()),
                "event_type": batch["event_type"],
                "value_c": _cents(batch["value"]),  # per-row cents: exact int Sum
                "epoch_h": pc.cast(hour, pa.int64()),  # bucket hash key
            }
        )
        part = rows.group_by(["hour", "event_type"]).aggregate(
            [("value_c", "sum"), ("epoch_h", "min"), ([], "count_all")]
        )
        return pa.table(
            {
                "hour": part["hour"],
                "event_type": part["event_type"],
                "value_c": part["value_c_sum"],
                "n": pc.cast(part["count_all"], pa.int64()),
                "epoch_h": part["epoch_h_min"],
            }
        )

    agg = bucket_aggregate(
        ev.map_batches(window, batch_format="pyarrow", zero_copy_batch=True),
        ["hour", "event_type"],
        [("value_c", "sum"), ("n", "sum")],
        hash_col="epoch_h",
    )

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": batch["hour"],
                "event_type": batch["event_type"],
                "n_events": pc.cast(batch["n_sum"], pa.int64()),
                "sum_value_c": pc.cast(batch["value_c_sum"], pa.int64()),
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


EVENTS_HOURLY_SQL = """
SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
       event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(100 * value) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events
GROUP BY 1, 2
""".strip()


# --- latest-event-per-key (CDC/cursor analog, T1/T7) ----------------------

def latest_event_per_user(sf_dir: str) -> ray.data.Dataset:
    """Latest event per user (order by ts, tie-break event_id) — the
    checkpoint-cursor idiom (the reference's 'last trx log processed',
    generate-rdfpatch.sh:44-45) as a grouped top-1: one ``shuffle.top_k``
    with k = 1, so each block keeps one row per user before the
    exchange."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )
    latest = top_k(ev, "user_id", [("ts", "descending"), ("event_id", "descending")], 1)
    return latest.map_batches(
        lambda t: pa.table(
            {
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "last_event_id": pc.cast(t["event_id"], pa.int64()),
                "last_type": t["event_type"],
                "last_value_c": _cents(t["value"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


LATEST_EVENT_SQL = """
WITH ranked AS (
    SELECT user_id, event_id, event_type, value,
           row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
    FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(event_id AS BIGINT) AS last_event_id,
       event_type AS last_type,
       CAST(round(100 * value) AS BIGINT) AS last_value_c
FROM ranked WHERE rn = 1
""".strip()


# --- gap-based sessionization (T7 streaming-window analog) ----------------

SESSION_GAP_S = 1800  # 30 min


def user_sessions(sf_dir: str) -> ray.data.Dataset:
    """Per-user session stats with 30-minute-gap sessionization — the
    streaming session-window op. Users are bucketed (user_id % nb); each
    bucket resolves ALL its users in one vectorized pass: sort by
    (user, ts), mark session starts (new user OR gap > threshold), then
    per-session sizes and per-user aggregates via segment reduces — no
    per-user map_groups (millions of single-user Python calls at scale).
    Event-time only; no wall-clock."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def sessions_bucket(_, group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("user_id", "ascending"), ("ts", "ascending")]
        )
        t = group.take(order)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_col = t["ts"]
        if isinstance(ts_col, pa.ChunkedArray):
            ts_col = ts_col.combine_chunks()
        ts = ts_col.to_numpy(zero_copy_only=False).astype("datetime64[s]").astype(np.int64)
        n = len(uid)
        new_session = np.ones(n, dtype=bool)
        new_session[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > SESSION_GAP_S)
        s_start = np.flatnonzero(new_session)
        sizes = np.diff(np.append(s_start, n))
        sess_user = uid[s_start]  # ascending (sessions follow user order)
        u_first = np.unique(uid, return_index=True)[1]
        su_first = np.unique(sess_user, return_index=True)[1]
        return pa.table(
            {
                "user_id": pa.array(uid[u_first]),
                "n_events": pa.array(np.diff(np.append(u_first, n))),
                "n_sessions": pa.array(np.diff(np.append(su_first, len(sess_user)))),
                "max_session_events": pa.array(np.maximum.reduceat(sizes, su_first)),
            }
        )

    return by_bucket(ev, "user_id", merge_buckets(), sessions_bucket)


USER_SESSIONS_SQL = f"""
WITH marked AS (
    SELECT user_id, ts,
           CASE WHEN epoch(ts) - epoch(lag(ts) OVER w) > {SESSION_GAP_S}
                OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sessioned AS (
    SELECT user_id, sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
           ROWS UNBOUNDED PRECEDING) AS session_id
    FROM marked
),
per_session AS (
    SELECT user_id, session_id, count(*) AS n FROM sessioned GROUP BY 1, 2
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       sum(n)::BIGINT AS n_events,
       count(*)::BIGINT AS n_sessions,
       max(n)::BIGINT AS max_session_events
FROM per_session GROUP BY user_id
""".strip()


# --- IN-list filter + aggregate (F1 excluded-graphs analog) ---------------

def filtered_event_stats(sf_dir: str) -> ray.data.Dataset:
    """F1-style IN-list filter (event_type whitelist) + value threshold, then
    per-type count/max — the excluded-graphs predicate shape."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    allowed = pa.array(["error", "purchase"], type=pa.string())

    def filt(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_in(batch["event_type"], value_set=allowed), pc.greater(batch["value"], 100.0)
        )
        return batch.filter(keep)

    agg = bucket_aggregate(
        ev.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"],
        [("value", "count"), ("value", "max")],
    )

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "n_events": pc.cast(batch["value_count"], pa.int64()),
                "max_value_c": _cents(batch["value_max"]),
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


FILTERED_EVENT_STATS_SQL = """
SELECT event_type, count(*) AS n_events,
       CAST(round(100 * max(value)) AS BIGINT) AS max_value_c
FROM events
WHERE event_type IN ('error', 'purchase') AND value > 100.0
GROUP BY event_type
""".strip()


# --- distributed AS-OF join (brief's custom-operator list) -----------------

def asof_prev_event(
    sf_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    left_type: str = "purchase",
    right_type: str = "click",
) -> ray.data.Dataset:
    """AS-OF join within the event stream: for every ``left_type`` event,
    the same user's latest ``right_type`` event at or before it (ties on ts
    broken by max event_id). Output (event_id, prev_event_id), inner — left
    events with no prior right event are dropped.

    Ray Data has no as-of join; the distributed form is the standard
    composition the brief asks to document: hash-bucket BOTH sides by the
    equality key (user_id), then ONE vectorized sorted-merge per bucket —
    lexsort (user, ts, side, event_id) with rights before lefts at equal
    ts (as-of is inclusive), forward-fill the last-seen right row index
    with maximum.accumulate, and mask fills that leak across user segment
    boundaries. Partitioning assumption: each bucket's rows fit one task
    (buckets = many users; salt a pathological single hot user by time
    range if one ever exceeds a task).
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    types = pa.array([left_type, right_type], type=pa.string())

    def sided(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["event_type"], value_set=types))
        return pa.table(
            {
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "ts": b["ts"],
                "user_id": pc.cast(b["user_id"], pa.int64()),
                # side 0 = right (as-of source), 1 = left (probe)
                "side": pc.cast(pc.equal(b["event_type"], left_type), pa.int8()),
            }
        )

    def asof_bucket(_, g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pc.cast(g["ts"], pa.timestamp("us")).to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        s = g["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, s, t, u))  # u primary, then ts, rights first, id last
        u, t, s, eid = u[order], t[order], s[order], eid[order]
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], type=pa.int64()),
                    "prev_event_id": pa.array([], type=pa.int64()),
                }
            )
        last_right = np.maximum.accumulate(np.where(s == 0, np.arange(n), -1))
        # user segment starts (u is sorted): fills must not cross users
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        seg_start = np.maximum.accumulate(np.where(new_user, np.arange(n), 0))
        valid = (s == 1) & (last_right >= seg_start)
        return pa.table(
            {
                "event_id": pa.array(eid[valid]),
                "prev_event_id": pa.array(eid[last_right[valid]]),
            }
        )

    rows = ev.map_batches(sided, batch_format="pyarrow", zero_copy_batch=True)
    return by_bucket(rows, "user_id", merge_buckets(), asof_bucket)


def asof_prev_event_sql(left_type: str = "purchase", right_type: str = "click") -> str:
    return f"""
SELECT l.event_id,
       (array_agg(r.event_id ORDER BY r.ts DESC, r.event_id DESC))[1] AS prev_event_id
FROM events l
JOIN events r
  ON r.user_id = l.user_id AND r.event_type = '{right_type}' AND r.ts <= l.ts
WHERE l.event_type = '{left_type}'
GROUP BY l.event_id
""".strip()


ASOF_PREV_EVENT_SQL = asof_prev_event_sql()


# --- distributed RANGE join (brief's custom-operator list) -----------------

RANGE_WINDOW_S = 300  # trailing window width


def range_window_counts(
    sf_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    window_s: int = RANGE_WINDOW_S,
) -> ray.data.Dataset:
    """Range self-join as a sliding-window count: for every event, how many
    events of the SAME user fall in (ts - window, ts] (self included, so
    >= 1). Output (event_id, n_recent).

    Distributed form: hash-bucket by user_id, then per bucket ONE composite
    sorted array answers every row with two vectorized searchsorteds —
    key = dense_user_rank * 2^45 + (ts - min_ts in us), so the window
    [key - window, key] can never cross a user boundary (segment spacing
    2^45 dwarfs any in-bucket time span). No per-row loop, no O(n*m)
    pair blowup; partitioning assumption: a bucket's rows fit one task.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    win_us = np.int64(window_s) * 1_000_000

    def window_bucket(_, g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = (
            pc.cast(g["ts"], pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(u) == 0:
            return pa.table(
                {
                    "event_id": pa.array([], type=pa.int64()),
                    "n_recent": pa.array([], type=pa.int64()),
                }
            )
        _, urank = np.unique(u, return_inverse=True)  # dense per-bucket rank
        # user-segment spacing must exceed any in-bucket time span (plus the
        # window) or [key - window, key] could cross users; size it from the
        # data instead of assuming, and fail loudly on int64 overflow
        span = int(t.max() - t.min()) + int(win_us) + 1
        shift = np.int64(1 << max(45, span.bit_length()))
        n_users = int(urank.max()) + 1
        if n_users * int(shift) >= (1 << 62):
            raise ValueError(
                f"range join composite key overflow: {n_users} users x "
                f"2^{int(shift).bit_length() - 1} us span in one bucket — "
                "raise the bucket count"
            )
        key = urank.astype(np.int64) * shift + (t - t.min())
        order = np.argsort(key, kind="stable")
        skey = key[order]
        # (ts-window, ts] per row: right-inclusive, left-exclusive
        hi = np.searchsorted(skey, key, side="right")
        lo = np.searchsorted(skey, key - win_us, side="right")
        return pa.table(
            {"event_id": pa.array(eid), "n_recent": pa.array(hi - lo)}
        )

    return by_bucket(ev, "user_id", merge_buckets(), window_bucket)


def range_window_counts_sql(window_s: int = RANGE_WINDOW_S) -> str:
    return f"""
SELECT l.event_id, count(*) AS n_recent
FROM events l
JOIN events r
  ON r.user_id = l.user_id
 AND r.ts > l.ts - INTERVAL {window_s} SECONDS
 AND r.ts <= l.ts
GROUP BY l.event_id
""".strip()


RANGE_WINDOW_COUNTS_SQL = range_window_counts_sql()


# --- grouped top-k (partial top-k combiner, G7 grouped form) --------------

TOPK_PER_GROUP = 3


def top_orders_by_priority(sf_dir: str, k: int = TOPK_PER_GROUP) -> ray.data.Dataset:
    """Top-k orders by totalprice per order priority — the grouped form of
    the reference's sort/limit idiom (G7, rdfdump.sh's newest-first file
    ordering) as one ``shuffle.top_k``: every block keeps at most k rows
    per priority, so only |groups| x k rows per block cross the exchange,
    and each bucket task re-cuts and ranks its priorities. No global sort
    at any scale.

    Ordering key is the integer cents price (descending, o_orderkey
    ascending tie-break) so ties resolve identically in the SQL oracle."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    priced = ds.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
                "price_c": _cents(b["o_totalprice"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return top_k(
        priced, "o_orderpriority", [("price_c", "descending"), ("o_orderkey", "ascending")], k
    )


TOP_ORDERS_BY_PRIORITY_SQL = f"""
SELECT o_orderpriority, o_orderkey, price_c, rank
FROM (
    SELECT o_orderpriority,
           o_orderkey,
           CAST(round(100 * o_totalprice) AS BIGINT) AS price_c,
           row_number() OVER (
               PARTITION BY o_orderpriority
               ORDER BY round(100 * o_totalprice) DESC, o_orderkey
           ) AS rank
    FROM orders
)
WHERE rank <= {TOPK_PER_GROUP}
""".strip()


# --- exact distributed quantiles (counts-merge, A-class) ------------------

QUANTILE_QS = ((0.5, "p50_c"), (0.9, "p90_c"), (0.99, "p99_c"))


def value_quantiles(sf_dir: str) -> ray.data.Dataset:
    """EXACT p50/p90/p99 of the integer-cents event value per event_type,
    computed distributed without a global sort: each block collapses to
    (event_type, value_c) -> count partials (pyarrow C++ group_by), the
    bucketed vectorized aggregate merges counts, and one ``by_bucket``
    pass on event_type walks the cumulative histogram of every type in
    its bucket. Only |distinct values| rows
    ever cross the exchange — for discretized metrics (cents, ms, token
    counts) that is data-size-independent, so this scales where a
    sort-based quantile is an all-to-all.

    Index semantics match DuckDB's quantile_disc: element at
    ceil(q * n) - 1 (0-based, clamped), computed in EXACT rational
    arithmetic — float q*n is off by one ulp exactly when q*n is integral
    (e.g. 0.99 * 100 = 99.000000000000014), which would shift the picked
    element."""
    from fractions import Fraction

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def counts(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"event_type": b["event_type"], "value_c": _cents(b["value"])}
        )
        part = t.group_by(["event_type", "value_c"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": part["event_type"],
                "value_c": part["value_c"],
                "n": pc.cast(part["count_all"], pa.int64()),
            }
        )

    merged = bucket_aggregate(
        ev.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "value_c"],
        [("n", "sum")],
        hash_col="value_c",
    )

    fracs = [(Fraction(str(q)), name) for q, name in QUANTILE_QS]

    def qtile(_, rows: pa.Table) -> pa.Table:
        t = rows.sort_by([("event_type", "ascending"), ("value_c", "ascending")])
        types = t["event_type"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(t["n_sum"].to_numpy(zero_copy_only=False))
        ends = np.flatnonzero(np.r_[types[1:] != types[:-1], True])  # last row per type
        before = np.r_[0, cum[ends[:-1]]]
        n = cum[ends] - before
        out = {"event_type": t["event_type"].take(ends)}
        for q, name in fracs:
            rank = np.maximum(1, -((-q.numerator * n) // q.denominator))  # exact ceil(q*n)
            out[name] = t["value_c"].take(np.searchsorted(cum, before + rank, side="left"))
        return pa.table(out)

    return by_bucket(merged, "event_type", merge_buckets(), qtile)


VALUE_QUANTILES_SQL = (
    "SELECT event_type, "
    + ", ".join(
        f"quantile_disc(value_c, {q}) AS {name}" for q, name in QUANTILE_QS
    )
    + " FROM (SELECT event_type, CAST(round(100 * value) AS BIGINT) AS value_c"
    " FROM events) GROUP BY event_type"
)


# --- hopping (sliding) window aggregate (T7 windowing, overlap form) ------

HOP_WINDOW_S = 3600
HOP_SLIDE_S = 1800


def events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Hopping-window count + sum(value): 1-hour windows starting every 30
    minutes, so each event lands in exactly window_s/slide_s = 2 windows.
    The fan-out is a vectorized numpy tile inside map_batches (no join
    against a window table), each block pre-aggregates its (window, type)
    partials with C++ group_by, and the merge is the bucketed vectorized
    aggregate keyed on the int64 window start — the same
    map-side-combine shape as events_hourly, with the overlap factor paid
    before the combine so the exchange still carries only partials.

    Window starts are int64 epoch seconds (aligned to slide boundaries) on
    both engine and oracle — no timestamp rendering in the compare."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    win, slide = HOP_WINDOW_S, HOP_SLIDE_S
    n_hops = win // slide

    def fanout(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        w0 = (us // (slide * 1_000_000)) * slide  # newest window containing the event
        starts = np.concatenate([w0 - i * slide for i in range(n_hops)])
        rep = np.tile(np.arange(len(us)), n_hops)
        t = pa.table(
            {
                "ws": pa.array(starts),
                "event_type": pc.take(b["event_type"], pa.array(rep)),
                "value_c": pc.take(pa.chunked_array([_cents(b["value"])]), pa.array(rep)),
            }
        )
        part = t.group_by(["ws", "event_type"]).aggregate(
            [("value_c", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "ws": part["ws"],
                "event_type": part["event_type"],
                "value_c": part["value_c_sum"],
                "n": pc.cast(part["count_all"], pa.int64()),
            }
        )

    agg = bucket_aggregate(
        ev.map_batches(fanout, batch_format="pyarrow", zero_copy_batch=True),
        ["ws", "event_type"],
        [("value_c", "sum"), ("n", "sum")],
        hash_col="ws",
    )

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ws": batch["ws"],
                "event_type": batch["event_type"],
                "n_events": pc.cast(batch["n_sum"], pa.int64()),
                "sum_value_c": pc.cast(batch["value_c_sum"], pa.int64()),
            }
        )

    return agg.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


EVENTS_SLIDING_SQL = f"""
SELECT ws, event_type, count(*) AS n_events,
       CAST(sum(CAST(round(100 * value) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM (
    SELECT unnest([
               CAST(floor(epoch(ts) / {HOP_SLIDE_S}) AS BIGINT) * {HOP_SLIDE_S},
               CAST(floor(epoch(ts) / {HOP_SLIDE_S}) AS BIGINT) * {HOP_SLIDE_S} - {HOP_SLIDE_S}
           ]) AS ws,
           event_type,
           value
    FROM events
)
GROUP BY ws, event_type
""".strip()


# --- anti-join (J-class: set difference, the changelog idiom as a native op)

def customers_no_urgent_orders(
    sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """Customers with NO 1-URGENT order — the anti-join half of the
    changelog's state diff (J1: deletions = prior keys absent from the new
    state, which pipelines/changelog.py takes per graph bucket with Arrow)
    expressed as a ``left anti`` Arrow join per ``co_bucket`` bucket, keyed
    on the int custkey.
    The probe side is pruned at the read (priority predicate pushed into the
    Parquet scan) and ships only the key column."""

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pc.field("o_orderpriority") == "1-URGENT",
    )
    o_keys = orders.map_batches(
        lambda b: pa.table({"c_custkey": b["o_custkey"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return co_bucket(
        cust, o_keys, "c_custkey", merge_buckets(), arrow_join("c_custkey", "left anti")
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": pc.cast(b["c_custkey"], pa.int64()),
                "c_nationkey": pc.cast(b["c_nationkey"], pa.int64()),
                "c_mktsegment": b["c_mktsegment"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


CUSTOMERS_NO_URGENT_SQL = """
SELECT c_custkey, c_nationkey, c_mktsegment
FROM customer c
WHERE NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
)
""".strip()
