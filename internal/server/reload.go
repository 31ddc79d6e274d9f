package server

// POST /admin/reload: hot-swap the serving database from a baked image
// (cmd/dbbake) without dropping a request. The endpoint is an admin
// surface, not an API one: it is off unless Config.EnableReload is set
// (nutriserve sets it exactly when its -db names an image file),
// it only answers loopback peers (nutriserve does not do authentication,
// so the reachable-from-anywhere failure mode is fenced at the socket),
// and it bypasses admission control — a reload must succeed exactly when
// the pipeline is saturated.
//
// The swap itself is core.Estimator.Install: requests already pinned to
// the old snapshot finish on it byte-identically, requests admitted
// after the store see only the new database (DESIGN.md §13).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"nutriprofile/internal/usda/bake"
)

// ReloadRequest is the POST /admin/reload body.
type ReloadRequest struct {
	// Path is the baked image file to load, as seen by the server
	// process (the image is read server-side; nothing is uploaded).
	Path string `json:"path"`
}

// The response body is the installed snapshot's identity —
// core.SnapshotStats: {"version":…,"foods":…,"source":…}.

// isLoopback reports whether the peer address is a loopback socket.
// Anything unparseable counts as non-loopback: fail closed.
func isLoopback(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !isLoopback(r.RemoteAddr) {
		writeError(w, http.StatusForbidden, "forbidden",
			"/admin/reload only answers loopback peers")
		return
	}
	// A reload body is one short path; anything bigger is not a reload.
	r.Body = http.MaxBytesReader(w, r.Body, 4096)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req ReloadRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_json",
			fmt.Sprintf("invalid reload body: %v", err))
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			`"path" must name a baked DB image on the server`)
		return
	}
	ld, err := bake.LoadFile(req.Path)
	if err != nil {
		// Load validates magic, version, checksum and structure; a bad
		// image never reaches the estimator, and serving continues on
		// the current snapshot.
		writeError(w, http.StatusBadRequest, "bad_image",
			fmt.Sprintf("loading %s: %v", req.Path, err))
		return
	}
	st, err := s.est.Install(ld.DB, ld.Index, req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_image",
			fmt.Sprintf("installing %s: %v", req.Path, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}
