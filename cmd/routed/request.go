package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"

	"clockroute/internal/server"
)

// runRequestCmd implements `routed route <file|->` and `routed plan
// <file|->`: it reads one api.RouteRequest or api.PlanRequest (from stdin
// when the path is "-") and answers it in-process through the handler
// that serves /v1/route and /v1/plan, built from server.Config{} with the
// result cache off. No listener is opened, and decoding, routing and
// rendering are exactly the service's. Timeout and workers come from the
// request's timeout_ms and workers fields.
//
// On 200 the response body goes to stdout and the exit code is 0. On 400
// (a request the api decoder rejects) the body goes to stderr with exit
// code 2; any other status, or an unreadable file, exits 1.
func runRequestCmd(verb string, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintf(stderr, "usage: routed %s <file|->\n", verb)
		return 2
	}
	var body []byte
	var err error
	if args[0] == "-" {
		body, err = io.ReadAll(stdin)
	} else {
		body, err = os.ReadFile(args[0])
	}
	if err != nil {
		fmt.Fprintf(stderr, "routed %s: %v\n", verb, err)
		return 1
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/"+verb, bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(stderr, "routed %s: %v\n", verb, err)
		return 1
	}
	req.Header.Set("Content-Type", "application/json")

	svc := server.New(server.Config{})
	defer svc.Shutdown(context.Background())
	resp := &bufferedResponse{header: make(http.Header)}
	svc.Handler().ServeHTTP(resp, req)

	if resp.status == http.StatusOK {
		stdout.Write(resp.body.Bytes())
		return 0
	}
	stderr.Write(resp.body.Bytes())
	if resp.status == http.StatusBadRequest {
		return 2
	}
	return 1
}

// bufferedResponse is the http.ResponseWriter the in-process request
// writes into. It stands in for httptest.ResponseRecorder because
// importing httptest can register an -httptest.serve flag on routed's
// serve flag set.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *bufferedResponse) Header() http.Header { return r.header }

func (r *bufferedResponse) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *bufferedResponse) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}
