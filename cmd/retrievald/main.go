// Command retrievald runs the distributed retrieval system of Fig. 1
// across real processes: data nodes serve gallery shards over TCP and a
// query client scatter/gathers top-m results through the coordinator.
//
// Every process rebuilds the same corpus and victim deterministically from
// -seed, so shards and features agree without shipping model weights.
//
// Usage:
//
//	retrievald -mode node  -addr 127.0.0.1:7001 -shard 0/2 &
//	retrievald -mode node  -addr 127.0.0.1:7002 -shard 1/2 &
//	retrievald -mode query -nodes 127.0.0.1:7001,127.0.0.1:7002 -index 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"duo"
	"duo/internal/models"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/tensor"
	"duo/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "retrievald:", err)
		os.Exit(1)
	}
}

// run is the whole command: node mode and -hold serve until ctx is done
// (main cancels it on interrupt, a test by calling cancel), then release
// every listener and connection on the way out.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("retrievald", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "query", "node or query")
		addr    = fs.String("addr", "127.0.0.1:7001", "node listen address")
		shard   = fs.String("shard", "0/1", "shard spec i/n for node mode")
		nodes   = fs.String("nodes", "", "comma-separated node addresses for query mode")
		idxFile = fs.String("indexfile", "", "node mode: persist/reuse the shard's feature index at this path")
		engine  = fs.String("engine", "exact", "node mode: index format: exact (full scan) or pq (product-quantized, ADC scan + exact re-rank)")

		pqSub    = fs.Int("pq-subspaces", 4, "pq engine: code subspaces per vector")
		pqCent   = fs.Int("pq-centroids", 16, "pq engine: centroids per subspace (≤ 256; clamped to the shard size)")
		pqRerank = fs.Int("pq-rerank", 32, "pq engine: exact re-rank depth per query")
		index    = fs.Int("index", 0, "test-video index to query")
		m        = fs.Int("m", 10, "retrieval list length")
		seed     = fs.Int64("seed", 1, "deterministic system seed")
		timeout  = fs.Duration("timeout", retrieval.DefaultCallTimeout, "per-call I/O deadline on node connections")
		retries  = fs.Int("retries", 3, "query mode: attempts per node call (1 disables retry)")
		breakK   = fs.Int("break-after", 5, "query mode: consecutive failures before a node's circuit breaker opens (0 disables)")
		policy   = fs.String("policy", "besteffort", "query mode: partial-result policy: besteffort, all, or quorum=N")
		admin    = fs.String("admin", "", "serve telemetry admin endpoints (/metrics.json, /debug/vars, /debug/pprof/) on this address; empty disables")

		maxInflight = fs.Int("max-inflight", 0, "node mode: max concurrently served requests (0 = unlimited)")
		queue       = fs.Int("queue", 0, "node mode: admission queue slots beyond -max-inflight (negative = none)")
		hold        = fs.Bool("hold", false, "query mode: stay up after the query, serving -admin endpoints (incl. /fleet.json) until interrupted")
		runtimeSamp = fs.Duration("runtime-stats", 5*time.Second, "runtime gauge sampling interval (heap, goroutines, GC pauses); 0 disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Telemetry and tracing are opt-in: without -admin both stay nil and
	// every instrument/span call below is a zero-cost no-op. The tracer
	// records node.serve spans (node mode) or per-attack-query node spans
	// (query mode), exported live at /trace.jsonl — only finished spans
	// appear, so scraping mid-serve is safe.
	var reg *telemetry.Registry
	var tracer *trace.Tracer
	var adminMux *http.ServeMux
	if *admin != "" {
		reg = telemetry.New()
		reg.PublishExpvar("duo")
		tracer = trace.New(fmt.Sprintf("retrievald-%s-%s", *mode, *shard))
		srv, lnAddr, mux, err := serveAdmin(*admin, reg, tracer)
		if err != nil {
			return err
		}
		defer srv.Close()
		adminMux = mux
		fmt.Fprintf(stdout, "admin endpoints on http://%s/ (metrics.json, fleet.json, trace.jsonl, debug/vars, debug/pprof/)\n", lnAddr)
	}
	// A data node always runs a registry, -admin or not: the coordinator's
	// fleet view pulls node snapshots over the wire, and a node without
	// telemetry would be a blind spot in every /fleet.json.
	if *mode == "node" && reg == nil {
		reg = telemetry.New()
	}
	if reg != nil && *runtimeSamp > 0 {
		rs := telemetry.NewRuntimeStats(reg)
		rs.Sample() // populate the gauges before the first scrape
		stop := rs.Poll(*runtimeSamp)
		defer stop()
	}

	// Rebuild the identical system in every process.
	sys, err := duo.NewSystem(duo.SystemOptions{Seed: *seed})
	if err != nil {
		return err
	}

	switch *mode {
	case "node":
		var si, sn int
		if _, err := fmt.Sscanf(*shard, "%d/%d", &si, &sn); err != nil || sn < 1 || si < 0 || si >= sn {
			return fmt.Errorf("bad -shard %q (want i/n)", *shard)
		}
		var mine []*duo.Video
		for i, v := range sys.Corpus.Train {
			if i%sn == si {
				mine = append(mine, v)
			}
		}
		if *engine != "exact" && *engine != "pq" {
			return fmt.Errorf("unknown -engine %q (want exact or pq)", *engine)
		}
		nodeIdx, fromDisk, err := loadOrBuildIndex(*idxFile, *engine, sys, mine, retrieval.PQConfig{
			Subspaces:   *pqSub,
			Centroids:   *pqCent,
			Seed:        *seed,
			RerankDepth: *pqRerank,
		})
		if err != nil {
			return err
		}
		nodeIdx.SetTelemetry(reg)
		defer nodeIdx.Close()
		if fromDisk {
			fmt.Fprintf(stdout, "loaded %s feature index from %s\n", *engine, *idxFile)
		} else if *idxFile != "" {
			fmt.Fprintf(stdout, "built and saved %s feature index to %s\n", *engine, *idxFile)
		}
		srv, err := retrieval.ServeNodeConfig(*addr, nodeIdx, retrieval.NodeServerConfig{
			Trace: tracer,
			Admission: retrieval.AdmissionConfig{
				MaxInFlight: *maxInflight,
				MaxQueue:    *queue,
			},
			Telemetry: reg,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		// Surface the admission configuration in /metrics.json next to the
		// live counters, so an operator reading shed counts can see the
		// limits that produced them.
		reg.Gauge("node.admission.config.max_inflight").Set(int64(*maxInflight))
		reg.Gauge("node.admission.config.queue").Set(int64(*queue))
		fmt.Fprintf(stdout, "node serving shard %s (%d videos) on %s\n", *shard, len(mine), srv.Addr())
		if *maxInflight > 0 {
			fmt.Fprintf(stdout, "admission: max %d in flight, %d queued; excess load is shed\n", *maxInflight, *queue)
		}
		if adminMux != nil {
			// A node's /fleet.json is the fleet-of-one view of itself, so
			// duostat points at any retrievald process the same way.
			adminMux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
				snap := reg.Snapshot()
				if r.URL.Query().Get("rings") != "1" {
					snap.Rings = map[string][]float64{}
				}
				writeFleetJSON(w, &retrieval.FleetView{
					Nodes: 1, Reachable: 1, Size: nodeIdx.Size(),
					Fleet: snap,
					PerNode: []retrieval.FleetNode{
						{Node: 0, Addr: srv.Addr(), Size: nodeIdx.Size(), Snapshot: snap},
					},
				})
			})
		}
		<-ctx.Done()
		return nil

	case "query":
		if *nodes == "" {
			return fmt.Errorf("query mode needs -nodes")
		}
		pol, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		var transports []retrieval.Transport
		for i, a := range strings.Split(*nodes, ",") {
			tr, err := retrieval.DialNodeConfig(strings.TrimSpace(a), retrieval.TCPConfig{Timeout: *timeout})
			if err != nil {
				return err
			}
			// Per-node fault-tolerance chain: breaker outermost so retries
			// don't hammer a node the breaker already declared dead.
			var node retrieval.Transport = tr
			if *retries > 1 {
				rt := retrieval.NewRetryTransport(node, retrieval.RetryConfig{
					MaxAttempts: *retries, Seed: *seed + int64(i),
				})
				rt.SetTelemetry(reg, fmt.Sprintf("cluster.node%d.retry", i))
				node = rt
			}
			if *breakK > 0 {
				bt := retrieval.NewBreakerTransport(node, retrieval.BreakerConfig{
					FailureThreshold: *breakK,
				})
				bt.SetTelemetry(reg, fmt.Sprintf("cluster.node%d.breaker", i))
				node = bt
			}
			transports = append(transports, node)
		}
		cluster := retrieval.NewCluster(sys.VictimModel(), transports).SetPolicy(pol).SetTrace(tracer)
		cluster.SetTelemetry(reg)
		defer cluster.Close()
		if adminMux != nil {
			// The coordinator's /fleet.json pulls every node's snapshot over
			// the stats RPC and serves the deterministic merge (?rings=1
			// includes node-local sample rings in the per-node sections).
			adminMux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
				view, err := cluster.FleetSnapshot(r.URL.Query().Get("rings") == "1")
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				writeFleetJSON(w, view)
			})
		}

		if *index < 0 || *index >= len(sys.Corpus.Test) {
			return fmt.Errorf("index %d out of range [0,%d)", *index, len(sys.Corpus.Test))
		}
		q := sys.Corpus.Test[*index]
		rs, err := cluster.RetrieveErr(q, *m)
		if err != nil {
			for _, h := range cluster.Health() {
				if h.LastError != "" || h.Sheds > 0 {
					fmt.Fprintf(os.Stderr, "node %d: %d ok, %d failed, %d shed (breaker %s): %s\n",
						h.Node, h.Successes, h.Failures, h.Sheds, h.Breaker, h.LastError)
				}
			}
			// BestEffort reports node errors alongside a usable partial
			// merge; that availability is the policy's point, so warn and
			// print. Strict policies return no results — fail hard.
			if len(rs) == 0 {
				return err
			}
			fmt.Fprintf(os.Stderr, "retrievald: partial results (%s): %v\n", pol, err)
		}
		fmt.Fprintf(stdout, "query %s (label %d) → top-%d [policy %s]:\n", q.ID, q.Label, *m, pol)
		for i, r := range rs {
			fmt.Fprintf(stdout, "%2d. %-28s label=%d dist=%.4f\n", i+1, r.ID, r.Label, r.Dist)
		}
		if *hold {
			fmt.Fprintln(stdout, "holding: admin endpoints stay up until interrupt (ctrl-c)")
			<-ctx.Done()
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// serveAdmin starts the -admin endpoint server (metrics snapshot, span
// dump, expvar, pprof) on addr and returns the running server, its bound
// address (so callers can use ":0" and learn the real port), and the mux
// so mode-specific endpoints (/fleet.json) can be added once their
// backing state exists — http.ServeMux registration is safe after the
// server starts.
func serveAdmin(addr string, reg *telemetry.Registry, tr *trace.Tracer) (*http.Server, net.Addr, *http.ServeMux, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("admin listener: %w", err)
	}
	mux := telemetry.AdminMux(reg)
	mux.Handle("/trace.jsonl", trace.Handler(tr))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr(), mux, nil
}

// writeFleetJSON serves a fleet view as pretty-printed JSON. encoding/json
// walks map keys sorted, so equal fleet state yields identical bytes.
func writeFleetJSON(w http.ResponseWriter, view *retrieval.FleetView) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}

// parsePolicy maps the -policy flag to a partial-result policy.
func parsePolicy(s string) (retrieval.Policy, error) {
	switch {
	case s == "besteffort" || s == "best-effort":
		return retrieval.BestEffort(), nil
	case s == "all" || s == "require-all":
		return retrieval.RequireAll(), nil
	case strings.HasPrefix(s, "quorum="):
		var q int
		if _, err := fmt.Sscanf(s, "quorum=%d", &q); err != nil || q < 1 {
			return retrieval.Policy{}, fmt.Errorf("bad -policy %q (want quorum=N with N ≥ 1)", s)
		}
		return retrieval.Quorum(q), nil
	default:
		return retrieval.Policy{}, fmt.Errorf("unknown -policy %q (want besteffort, all, or quorum=N)", s)
	}
}

// engineOf names the -engine that serves idx.
func engineOf(idx retrieval.LoadedIndex) string {
	if _, ok := idx.(*retrieval.PQIndex); ok {
		return "pq"
	}
	return "exact"
}

// loadOrBuildIndex reuses a persisted feature index when available (the
// expensive part of node startup is feature extraction, and for pq also
// codebook training), otherwise builds the -engine's index over mine and
// persists it if a path was given. A loaded index is memory-mapped
// read-only.
//
// A missing file means "build". Any other open failure (permissions, I/O)
// is reported rather than silently triggering an expensive rebuild over a
// file we could not even look at. A file that is unusable — it fails the
// format's typed validation (truncated, corrupt, another version, not an
// index file) or holds the other engine's index — is reported and rebuilt,
// overwriting it.
func loadOrBuildIndex(path, engine string, sys *duo.System, mine []*duo.Video, cfg retrieval.PQConfig) (retrieval.LoadedIndex, bool, error) {
	if path != "" {
		idx, err := retrieval.OpenIndexFile(path)
		switch {
		case err == nil && engineOf(idx) == engine:
			return idx, true, nil
		case err == nil:
			idx.Close()
			fmt.Fprintf(os.Stderr, "retrievald: index %s was built for -engine %s, not %s; rebuilding\n", path, engineOf(idx), engine)
		case errors.Is(err, retrieval.ErrIndexMagic),
			errors.Is(err, retrieval.ErrIndexVersion),
			errors.Is(err, retrieval.ErrIndexTruncated),
			errors.Is(err, retrieval.ErrIndexCorrupt):
			fmt.Fprintf(os.Stderr, "retrievald: unusable index (%v); rebuilding\n", err)
		case !errors.Is(err, os.ErrNotExist):
			return nil, false, fmt.Errorf("open index %s: %w", path, err)
		}
	}
	model := sys.VictimModel()
	ids := make([]string, len(mine))
	labels := make([]int, len(mine))
	feats := make([]*tensor.Tensor, len(mine))
	for i, v := range mine {
		ids[i], labels[i], feats[i] = v.ID, v.Label, models.Embed(model, v)
	}
	var idx retrieval.LoadedIndex = retrieval.NewShardFromFeatures(ids, labels, feats)
	if engine == "pq" {
		cfg.Centroids = min(cfg.Centroids, len(mine))
		pq, err := retrieval.NewPQIndex(ids, labels, feats, cfg)
		if err != nil {
			return nil, false, err
		}
		idx = pq
	}
	if path != "" {
		if err := writeIndexAtomic(path, idx.WriteIndex); err != nil {
			return nil, false, err
		}
	}
	return idx, false, nil
}

// writeIndexAtomic persists an index via temp file + rename so a crash
// mid-write can never leave a truncated index that poisons the next
// startup: readers see either the old file or the complete new one. write
// is the index's encoder (Shard.WriteIndex or PQIndex.WriteIndex).
func writeIndexAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist index: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("persist index: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist index: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist index: %w", err)
	}
	return nil
}
