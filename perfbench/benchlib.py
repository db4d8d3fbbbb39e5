"""Statistics, parsers and the bound check shared by the ftb benchmark
scripts. Pure functions only, so perfbench/test_benchlib.py can pin them."""

import re
import statistics

# Percentiles considered for the tail of a timing, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles
    (exclusive method) gives them; needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail(values):
    """The highest percentile that leaves at least ten samples above it.

    Returns (p, value, count) with count the sample size, or
    (None, None, count) when fewer than eleven samples exist."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= 10:
            return p, value, n
    return None, None, n


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def bound_check(first, second, bound, better):
    """The acceptance rule for one metric: each set's spread within the
    bound, and the second set's median no worse than the first's by more
    than the bound. Returns (ok, reasons)."""
    reasons = []
    for label, values in (("first", first), ("second", second)):
        s = spread(values)
        if s > bound:
            reasons.append("%s spread %.3f > bound %.3f" % (label, s, bound))
    m1, m2 = median(first), median(second)
    worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
    if worse > bound:
        reasons.append("median worse by %.3f > bound %.3f" % (worse, bound))
    return not reasons, reasons


# --- bench/main.exe stderr stage markers ----------------------------------

STAGE_RE = re.compile(r"^== (\S+) ==$")
CAMPAIGN_RE = re.compile(r"^\s*\[([^\]]+)\] exhaustive campaign (\d+)/(\d+)$")
READY_RE = re.compile(
    r"^\s*\[([^\]]+)\] context ready: (\d+) sites, (\d+) cases \(([0-9.]+)s\)$"
)
TOTAL_RE = re.compile(r"^total wall time: ")


def parse_markers(lines, end, expected_stages=()):
    """Turn timestamped stderr lines [(t, text)] into stage and context
    intervals.

    A stage runs from its '== name ==' line to the next stage line, the
    'total wall time' line, or `end`. A context runs from the line before
    its first '[K] exhaustive campaign' line to its '[K] context ready'
    line and belongs to the stage it ends in. Markers that are missing are
    listed in `problems`; no interval is guessed for them."""
    stages, contexts, problems = [], [], []
    open_ctx = {}
    prev_t = None
    for t, text in lines:
        m = STAGE_RE.match(text)
        if m:
            if stages and stages[-1][2] is None:
                stages[-1][2] = t
            stages.append([m.group(1), t, None])
        elif TOTAL_RE.match(text):
            if stages and stages[-1][2] is None:
                stages[-1][2] = t
        elif CAMPAIGN_RE.match(text):
            kernel = CAMPAIGN_RE.match(text).group(1)
            if kernel not in open_ctx:
                open_ctx[kernel] = prev_t if prev_t is not None else t
        elif READY_RE.match(text):
            m = READY_RE.match(text)
            kernel = m.group(1)
            start = open_ctx.pop(kernel, None)
            if start is None:
                problems.append("context %s: no 'exhaustive campaign' marker" % kernel)
            else:
                stage = stages[-1][0] if stages else None
                contexts.append((kernel, stage, start, t, int(m.group(3))))
        prev_t = t
    if stages and stages[-1][2] is None:
        stages[-1][2] = end
    for kernel in open_ctx:
        problems.append("context %s: no 'context ready' marker" % kernel)
    seen = {s[0] for s in stages}
    for name in expected_stages:
        if name not in seen:
            problems.append("stage %s: no '== %s ==' marker" % (name, name))
    return [tuple(s) for s in stages], contexts, problems


# --- /proc ----------------------------------------------------------------


def parse_proc_stat(text):
    """utime and stime (clock ticks) from /proc/<pid>/stat. The command
    name is parenthesised and may itself hold spaces and parentheses, so
    fields are counted from the last ')'."""
    rest = text[text.rindex(")") + 2 :].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return {"state": rest[0], "utime": int(rest[11]), "stime": int(rest[12])}


def parse_vm_hwm_kib(status_text):
    """Peak resident set (VmHWM, KiB) from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


# --- spans ------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover. `spans` are dicts with id, name,
    start, end and parent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
