// holmes-serve dashboard. Plain browser JS, no build step: polls
// /v1/jobs and /v1/stats for the fleet and serving pictures, and rides
// /v1/events (SSE) for live transitions, scenario health, and the
// event log. All rendering is DOM/SVG built here; all colors come
// from the CSS custom properties defined in style.css.
"use strict";

const POLL_MS = 2500;
const LOG_CAP = 250;

const state = {
  fleets: [],      // /v1/jobs fleets array
  stats: null,     // /v1/stats payload
  log: [],         // most-recent-first event ring
  health: new Map(), // fleet -> Map(node -> "degraded"|"failed")
  live: true,
  scrub: 1,        // 0..1 fraction of the horizon when not live
};

const $ = (id) => document.getElementById(id);
const fmt = (x, d = 1) => (x == null || isNaN(x)) ? "—" : (+x).toFixed(d);

// ---- data plumbing ---------------------------------------------------

async function poll() {
  try {
    const [jobs, stats] = await Promise.all([
      fetch("/v1/jobs").then((r) => r.json()),
      fetch("/v1/stats").then((r) => r.json()),
    ]);
    state.fleets = jobs.fleets || [];
    state.stats = stats;
    $("version").textContent = "v" + (stats.version || "");
    render();
  } catch (err) {
    // Leave the last good picture up; the SSE badge carries liveness.
  }
  setTimeout(poll, POLL_MS);
}

function connectEvents() {
  const es = new EventSource("/v1/events");
  const conn = $("conn");
  const set = (st, label) => {
    conn.dataset.state = st;
    conn.querySelector(".label").textContent = label;
  };
  es.onopen = () => set("live", "events: live");
  es.onerror = () => set("down", "events: reconnecting");
  for (const kind of ["job", "scenario", "retire", "eof"]) {
    es.addEventListener(kind, (msg) => {
      let ev;
      try { ev = JSON.parse(msg.data); } catch { ev = { kind }; }
      ev.kind = ev.kind || kind;
      onEvent(ev);
    });
  }
}

function onEvent(ev) {
  state.log.unshift(ev);
  if (state.log.length > LOG_CAP) state.log.pop();
  if (ev.kind === "scenario" && ev.payload) applyHealth(ev.fleet, ev.payload);
  renderLog();
  renderTopology();
}

// applyHealth folds one scenario event into the per-fleet node-health
// overlay. Only node-addressed kinds move the overlay; everything else
// still shows in the log.
function applyHealth(fleet, p) {
  if (!fleet || p.node == null) return;
  let m = state.health.get(fleet);
  if (!m) { m = new Map(); state.health.set(fleet, m); }
  switch (p.kind) {
    case "fail_node": m.set(p.node, "failed"); break;
    case "restore_node": m.delete(p.node); break;
    case "degrade_nic": case "delay": case "jitter": case "loss":
    case "corrupt": case "flap_link": case "straggler":
      if (m.get(p.node) !== "failed") m.set(p.node, "degraded");
      break;
  }
}

// ---- derived fleet views ---------------------------------------------

// stateAt mirrors the operator's placementState: the job's state at
// wall instant t, derived from its deterministic placement.
function stateAt(p, t) {
  if (p.unplaced) return "unplaced";
  if ((p.nodes || []).length && t >= p.finish) return "done";
  if ((p.nodes || []).length && t >= p.start) return "running";
  return "queued";
}

function horizon() {
  let h = 1;
  for (const f of state.fleets) {
    h = Math.max(h, f.now || 0, f.schedule ? f.schedule.makespan : 0);
  }
  return h;
}

// cursorFor is the playback instant for one fleet: its own wall clock
// when live, the scrubbed fraction of the global horizon otherwise.
function cursorFor(f) {
  return state.live ? (f.now || 0) : state.scrub * horizon();
}

// ---- rendering --------------------------------------------------------

function render() {
  renderTiles();
  renderGantt();
  renderTopology();
  renderLatency();
  renderJobsTable();
}

function tile(label, value, sub) {
  const d = document.createElement("div");
  d.className = "tile";
  for (const [cls, text] of [["label", label], ["value", value], ["sub", sub || ""]]) {
    const s = document.createElement("div");
    s.className = cls;
    s.textContent = text;
    d.appendChild(s);
  }
  return d;
}

function renderTiles() {
  const t = $("tiles");
  t.replaceChildren();
  let live = 0, done = 0, util = 0, withSched = 0;
  for (const f of state.fleets) {
    live += f.jobs || 0;
    done += f.done || 0;
    if (f.schedule) { util += f.schedule.utilization || 0; withSched++; }
  }
  let rps = 0;
  const eps = state.stats && state.stats.serve ? state.stats.serve.endpoints || {} : {};
  for (const name in eps) rps += eps[name].throughput_rps || 0;
  t.appendChild(tile("Fleets", String(state.fleets.length)));
  t.appendChild(tile("Live jobs", String(live)));
  t.appendChild(tile("Retired", String(done)));
  t.appendChild(tile("Utilization", withSched ? fmt(100 * util / withSched) + "%" : "—", "mean across fleets"));
  t.appendChild(tile("Throughput", fmt(rps) + " rps", "trailing 30s, all endpoints"));
  t.appendChild(tile("Uptime", state.stats && state.stats.serve ? fmt(state.stats.serve.uptime_seconds, 0) + "s" : "—"));
}

const SVGNS = "http://www.w3.org/2000/svg";
const svgEl = (name, attrs) => {
  const el = document.createElementNS(SVGNS, name);
  for (const k in attrs) el.setAttribute(k, attrs[k]);
  return el;
};

const stateFill = {
  queued: "var(--axis)",
  running: "var(--series-1)",
  done: "var(--status-good)",
  unplaced: "var(--status-critical)",
};

function renderGantt() {
  const root = $("gantt");
  root.replaceChildren();
  const H = horizon();
  let any = false;
  for (const f of state.fleets) {
    const jobs = f.schedule ? f.schedule.jobs || [] : [];
    if (!jobs.length) continue;
    any = true;
    const label = document.createElement("div");
    label.className = "fleet-label";
    label.textContent = `fleet ${f.fleet} · policy ${f.policy || "default"} · ${jobs.length} live`;
    root.appendChild(label);

    const ROW = 18, W = 900, PADL = 2;
    const t = cursorFor(f);
    const svg = svgEl("svg", { viewBox: `0 0 ${W} ${jobs.length * ROW + 16}` });
    const x = (v) => PADL + (v / H) * (W - PADL - 2);
    // recessive hairline grid: quarters of the horizon
    for (let q = 0; q <= 4; q++) {
      svg.appendChild(svgEl("line", {
        x1: x(H * q / 4), x2: x(H * q / 4), y1: 0, y2: jobs.length * ROW,
        stroke: "var(--grid)", "stroke-width": 1,
      }));
      const tick = svgEl("text", {
        x: x(H * q / 4), y: jobs.length * ROW + 12, "font-size": 9,
        fill: "var(--text-muted)", "text-anchor": q === 4 ? "end" : "middle",
      });
      tick.textContent = fmt(H * q / 4, 0) + "s";
      svg.appendChild(tick);
    }
    jobs.forEach((p, i) => {
      const st = stateAt(p, t);
      const y = i * ROW + 3;
      const placed = (p.nodes || []).length > 0;
      const x0 = x(placed ? p.start : (p.start || 0));
      const x1 = x(placed ? p.finish : (p.start || 0) + H / 80);
      const bar = svgEl("rect", {
        x: x0, y, width: Math.max(x1 - x0, 2), height: ROW - 7,
        rx: 3, fill: stateFill[st],
        "fill-opacity": st === "queued" ? 0.55 : 1,
      });
      const tip = svgEl("title", {});
      tip.textContent = `${p.job}: ${st} · start ${fmt(p.start)}s finish ${fmt(p.finish)}s · nodes [${(p.nodes || []).join(",")}]`;
      bar.appendChild(tip);
      svg.appendChild(bar);
      const txt = svgEl("text", {
        x: Math.min(x0 + 4, W - 60), y: y + ROW - 11, "font-size": 9.5,
        fill: "var(--text-primary)",
      });
      txt.textContent = p.job + (st === "done" ? " ✓" : st === "unplaced" ? " ✕" : "");
      svg.appendChild(txt);
    });
    // time cursor
    svg.appendChild(svgEl("line", {
      x1: x(Math.min(t, H)), x2: x(Math.min(t, H)), y1: 0, y2: jobs.length * ROW,
      stroke: "var(--text-muted)", "stroke-width": 1.5, "stroke-dasharray": "3 2",
    }));
    root.appendChild(svg);
    $("cursor").textContent = "t = " + fmt(t) + "s";
  }
  if (!any) {
    const p = document.createElement("p");
    p.className = "empty";
    p.textContent = "No live jobs — submit one to /v1/jobs.";
    root.appendChild(p);
    $("cursor").textContent = "t = —";
  }
}

function renderTopology() {
  const root = $("topo");
  root.replaceChildren();
  if (!state.fleets.length) {
    const p = document.createElement("p");
    p.className = "empty";
    p.textContent = "No fleets yet.";
    root.appendChild(p);
    return;
  }
  for (const f of state.fleets) {
    const sched = f.schedule;
    const n = sched ? sched.nodes || 0 : 0;
    if (!n) continue;
    const t = cursorFor(f);
    const busy = new Set();
    for (const p of (sched.jobs || [])) {
      if (stateAt(p, t) === "running") for (const nd of p.nodes || []) busy.add(nd);
    }
    const health = state.health.get(f.fleet) || new Map();
    const label = document.createElement("div");
    label.className = "fleet-label";
    label.textContent = `fleet ${f.fleet} · ${n} nodes · ${busy.size} busy`;
    root.appendChild(label);
    const grid = document.createElement("div");
    grid.className = "topo";
    for (let i = 0; i < n; i++) {
      const cell = document.createElement("div");
      cell.className = "node" + (busy.has(i) ? " busy" : "");
      const h = health.get(i);
      if (h) cell.dataset.health = h;
      const badge = document.createElement("span");
      badge.className = "badge";
      badge.textContent = h === "failed" ? "✕" : h === "degraded" ? "⚠" : "";
      const id = document.createElement("span");
      id.className = "id";
      id.textContent = "n" + i;
      cell.title = `node ${i}: ${busy.has(i) ? "busy" : "idle"}${h ? " · " + h : ""}`;
      cell.append(badge, id);
      grid.appendChild(cell);
    }
    root.appendChild(grid);
  }
}

function renderLatency() {
  const root = $("latency");
  root.replaceChildren();
  const eps = state.stats && state.stats.serve ? state.stats.serve.endpoints || {} : {};
  const names = Object.keys(eps).filter((n) => (eps[n].latency_ms || {}).count > 0).sort();
  if (!names.length) {
    const p = document.createElement("p");
    p.className = "empty";
    p.textContent = "No traffic yet.";
    root.appendChild(p);
    return;
  }
  let max = 0;
  for (const n of names) max = Math.max(max, eps[n].latency_ms.p99_ms || 0);
  const table = document.createElement("table");
  for (const n of names) {
    const l = eps[n].latency_ms;
    const tr = document.createElement("tr");
    const ep = document.createElement("td");
    ep.className = "ep";
    ep.textContent = n;
    const bars = document.createElement("td");
    const wrap = document.createElement("div");
    wrap.className = "bars";
    for (const q of ["p50", "p95", "p99"]) {
      const bar = document.createElement("div");
      bar.className = "bar " + q;
      bar.style.width = Math.max(1, 100 * (l[q + "_ms"] || 0) / (max || 1)) + "%";
      bar.title = `${n} ${q}: ${fmt(l[q + "_ms"], 2)} ms`;
      wrap.appendChild(bar);
    }
    bars.appendChild(wrap);
    const num = document.createElement("td");
    num.className = "num";
    num.textContent = fmt(l.p95_ms, 1) + "ms";
    num.title = `p95 of ${l.count} requests · ${fmt(eps[n].throughput_rps, 2)} rps`;
    tr.append(ep, bars, num);
    table.appendChild(tr);
  }
  root.appendChild(table);
}

function renderJobsTable() {
  const tbody = $("jobs-table").querySelector("tbody");
  tbody.replaceChildren();
  for (const f of state.fleets) {
    const t = cursorFor(f);
    for (const p of (f.schedule ? f.schedule.jobs || [] : [])) {
      const tr = document.createElement("tr");
      for (const v of [f.fleet, p.job, stateAt(p, t), fmt(p.start), fmt(p.finish),
        (p.nodes || []).join(","), fmt(p.tflops_per_gpu)]) {
        const td = document.createElement("td");
        td.textContent = v;
        tr.appendChild(td);
      }
      tbody.appendChild(tr);
    }
  }
}

function describe(ev) {
  switch (ev.kind) {
    case "job": return `${ev.job} → ${ev.state}`;
    case "retire": return `retired ${(ev.jobs || []).length} job(s): ${(ev.jobs || []).join(", ")}`;
    case "scenario":
      return `${ev.state} ${ev.payload ? ev.payload.kind : ""}` +
        (ev.payload && ev.payload.node != null ? ` on node ${ev.payload.node}` : "");
    case "eof": return "stream closed by server";
    default: return ev.kind;
  }
}

function renderLog() {
  const log = $("log");
  log.replaceChildren();
  for (const ev of state.log) {
    const li = document.createElement("li");
    const at = document.createElement("span");
    at.className = "at";
    at.textContent = ev.at != null ? fmt(ev.at) + "s" : "";
    const kind = document.createElement("span");
    kind.className = "kind";
    kind.textContent = ev.kind;
    const what = document.createElement("span");
    what.className = "what";
    what.textContent = describe(ev);
    li.append(at, kind, what);
    log.appendChild(li);
  }
}

// ---- playback controls -------------------------------------------------

$("live").addEventListener("change", (e) => {
  state.live = e.target.checked;
  $("scrub").disabled = state.live;
  if (state.live) $("scrub").value = 1000;
  render();
});
$("scrub").addEventListener("input", (e) => {
  state.scrub = (+e.target.value) / 1000;
  render();
});

connectEvents();
poll();
