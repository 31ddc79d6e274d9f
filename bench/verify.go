package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"nutriprofile/internal/core"
	"nutriprofile/internal/server"
	"nutriprofile/internal/usda/bake"
)

// referenceHandler answers kept requests in process, over the image the
// server was started from and with no cache, so every answer comes from
// a full pipeline pass: the caches in front of it may skip work but
// never change a byte.
func referenceHandler(ld *bake.Loaded, img string) (http.Handler, error) {
	est, err := core.NewWithIndex(ld.DB, nil, core.Options{}, ld.Index, img)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Estimator: est})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// verify compares each sample's answer with ref's answer to the same
// body, byte for byte, and describes the first difference.
func verify(ref http.Handler, samples []sample) (mismatches int, first string) {
	for _, s := range samples {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, s.path, bytes.NewReader(s.req)))
		if rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), s.resp) {
			continue
		}
		mismatches++
		if first == "" {
			first = fmt.Sprintf("%s %.300q: server answered %.300q, in-process %d %.300q",
				s.path, s.req, s.resp, rec.Code, rec.Body.Bytes())
		}
	}
	return mismatches, first
}
