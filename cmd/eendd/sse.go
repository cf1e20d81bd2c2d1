package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// wantsSSE reports whether the client asked for a live event stream
// instead of one JSON snapshot.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if containsToken(accept, "text/event-stream") {
			return true
		}
	}
	return false
}

// containsToken reports whether a comma-separated header value contains
// the media type (ignoring parameters like ;q=).
func containsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.TrimSpace(part) == token {
			return true
		}
	}
	return false
}

// sseInterval is the snapshot cadence of the event streams.
const sseInterval = time.Second

// serveSSE streams job progress as Server-Sent Events: one "data:" line
// per snapshot every sseInterval, a final snapshot when the job leaves
// Running, then the stream closes. snap returns the current snapshot and
// whether it is final. A dropped client (or server shutdown) ends the
// stream through the request context.
func serveSSE(w http.ResponseWriter, r *http.Request, snap func() (any, bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func() bool {
		v, final := snap()
		data, err := json.Marshal(v)
		if err != nil {
			return true
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		fl.Flush()
		return final
	}
	if send() {
		return
	}
	t := time.NewTicker(sseInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
			if send() {
				return
			}
		}
	}
}
