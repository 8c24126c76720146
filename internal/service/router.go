package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
)

// ringVirtualNodes is how many points each shard contributes to the ring.
// Enough for ±a few percent balance across shards without making owner
// lookups (binary search over shards×64 points) measurable.
const ringVirtualNodes = 64

// hashRing is a consistent-hash ring over n slots (local shards or fleet
// members). Cluster names hash onto the same 64-bit circle as the slots'
// virtual nodes; a cluster is owned by the first slot point at or after its
// hash. Ring placement depends only on the slot index, so every fleet member
// — and every restart — computes identical ownership, and growing from n to
// n+1 slots moves only the keys the new slot's points capture.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	slot int
}

func newHashRing(n int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, n*ringVirtualNodes)}
	for slot := 0; slot < n; slot++ {
		for v := 0; v < ringVirtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("slot-%d-vn-%d", slot, v)),
				slot: slot,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// owner maps a cluster name to its slot: the successor point on the ring.
func (r *hashRing) owner(cluster string) int {
	h := hash64(cluster)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring's first point succeeds the highest hash
	}
	return r.points[i].slot
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256, the same family
// as core.TaskHash's content addressing, so placement is stable across
// processes, platforms and restarts (unlike maphash or map iteration order).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// clusterHeader names a request's admission domain on the legacy
// (unprefixed) API paths.
const clusterHeader = "X-Cluster"

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/admit        trial-admit a DAG task (body: task JSON; ?trace=1
//	                        embeds the FEDCONS decision trace in the verdict)
//	POST   /v1/admit/batch  trial-admit a task list all-or-nothing (body:
//	                        {"tasks": [...]}; cold Phase-1 analyses run on
//	                        the Options.Par worker pool)
//	DELETE /v1/tasks/{name} remove an admitted task
//	GET    /v1/allocation   current verdict + allocation
//	GET    /v1/healthz      liveness
//	GET    /debug/vars      the per-shard metrics as JSON
//	GET    /debug/traces    flight recorder: retained decision entries, JSONL
//	GET    /debug/traces/{id}  one retained decision trace by trace ID
//	GET    /metrics         Prometheus text exposition
//
// Every data path also exists under /v1/clusters/{cluster}/... — e.g.
// POST /v1/clusters/payments/admit — naming the admission domain in the
// path; the unprefixed paths read the domain from the X-Cluster header
// (absent header = cluster ""). Each cluster maps to one shard by
// consistent hashing, so requests for different clusters never contend.
// With Config.Fleet set, a cluster owned by another fleet member is
// answered with a 307 redirect to that member.
//
// Every mutating response carries an X-Trace-Id header; shed and timed-out
// requests additionally echo the ID in the error body.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Legacy paths: cluster from the X-Cluster header.
	mux.HandleFunc("POST /v1/admit", s.route(headerCluster, (*Shard).handleAdmit))
	mux.HandleFunc("POST /v1/admit/batch", s.route(headerCluster, (*Shard).handleAdmitBatch))
	mux.HandleFunc("DELETE /v1/tasks/{name}", s.route(headerCluster, (*Shard).handleRemove))
	mux.HandleFunc("GET /v1/allocation", s.route(headerCluster, (*Shard).handleAllocation))
	// Path-addressed cluster family.
	mux.HandleFunc("POST /v1/clusters/{cluster}/admit", s.route(pathCluster, (*Shard).handleAdmit))
	mux.HandleFunc("POST /v1/clusters/{cluster}/admit/batch", s.route(pathCluster, (*Shard).handleAdmitBatch))
	mux.HandleFunc("DELETE /v1/clusters/{cluster}/tasks/{name}", s.route(pathCluster, (*Shard).handleRemove))
	mux.HandleFunc("GET /v1/clusters/{cluster}/allocation", s.route(pathCluster, (*Shard).handleAllocation))
	// Process-level endpoints: never redirected, always local.
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// headerCluster and pathCluster extract a request's cluster name.
func headerCluster(r *http.Request) string { return r.Header.Get(clusterHeader) }
func pathCluster(r *http.Request) string   { return r.PathValue("cluster") }

// route wraps a shard handler with cluster resolution: extract the cluster
// name, redirect if another fleet member owns it, otherwise dispatch to the
// owning local shard.
func (s *Server) route(cluster func(*http.Request) string, h func(*Shard, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := cluster(r)
		if s.fleet != nil {
			if member := s.fleet.owner(name); member != s.cfg.Self {
				// 307 preserves the method and body, so a redirected POST
				// replays the admission verbatim against the owner.
				http.Redirect(w, r, s.cfg.Fleet[member]+r.URL.RequestURI(), http.StatusTemporaryRedirect)
				return
			}
		}
		h(s.shards[s.ring.owner(name)], w, r)
	}
}
