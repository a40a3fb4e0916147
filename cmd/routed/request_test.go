package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"clockroute/api"
	"clockroute/internal/server"
)

// elapsedNS matches the wall-time fields, the only bytes two runs of the
// same request may differ in.
var elapsedNS = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

func normalizeElapsed(b []byte) []byte {
	return elapsedNS.ReplaceAll(b, []byte(`"elapsed_ns":0`))
}

// requestVerb maps a testdata file to its subcommand: plan*.json holds an
// api.PlanRequest, everything else an api.RouteRequest.
func requestVerb(path string) string {
	if strings.HasPrefix(filepath.Base(path), "plan") {
		return "plan"
	}
	return "route"
}

// runCLI runs one subcommand in-process and returns its exit code and
// output streams.
func runCLI(verb string, args []string, stdin io.Reader) (code int, stdout, stderr []byte) {
	var out, errOut bytes.Buffer
	code = runRequestCmd(verb, args, stdin, &out, &errOut)
	return code, out.Bytes(), errOut.Bytes()
}

// TestRequestCmdMatchesService: for every request in testdata, `routed
// route|plan` prints exactly the body the service returns over HTTP for
// the same bytes, modulo elapsed_ns.
func TestRequestCmdMatchesService(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata requests (%v)", err)
	}
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	kinds := map[string]bool{}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			verb := requestVerb(path)
			if verb == "route" {
				var req api.RouteRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatal(err)
				}
				kinds[req.Kind] = true
			} else {
				kinds[verb] = true
			}

			resp, err := http.Post(ts.URL+"/v1/"+verb, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("service answered %s: %s", resp.Status, want)
			}

			code, got, stderr := runCLI(verb, []string{path}, nil)
			if code != 0 {
				t.Fatalf("routed %s exit %d: %s", verb, code, stderr)
			}
			if !bytes.Equal(normalizeElapsed(got), normalizeElapsed(want)) {
				t.Fatalf("routed %s output differs from the service body\ncli:     %s\nservice: %s", verb, got, want)
			}
		})
	}
	for _, k := range []string{"rbp", "gals", "fastpath", "plan"} {
		if !kinds[k] {
			t.Errorf("testdata has no %s request", k)
		}
	}
}

// TestRequestCmdReadsStdin: the path "-" reads the request from stdin.
func TestRequestCmdReadsStdin(t *testing.T) {
	body, err := os.ReadFile("testdata/fastpath.json")
	if err != nil {
		t.Fatal(err)
	}
	_, fromFile, _ := runCLI("route", []string{"testdata/fastpath.json"}, nil)
	code, fromStdin, stderr := runCLI("route", []string{"-"}, bytes.NewReader(body))
	if code != 0 || !bytes.Equal(normalizeElapsed(fromStdin), normalizeElapsed(fromFile)) {
		t.Fatalf("routed route - exit %d, stderr %s\nstdin: %s\nfile:  %s", code, stderr, fromStdin, fromFile)
	}
}

// TestRequestCmdRejectsBadInput: a body the strict api decoder refuses
// exits 2 with the decoder's own message on stderr and nothing on stdout;
// an unreadable file or a missing path argument exits non-zero.
func TestRequestCmdRejectsBadInput(t *testing.T) {
	good, err := os.ReadFile("testdata/rbp.json")
	if err != nil {
		t.Fatal(err)
	}
	goodPlan, err := os.ReadFile("testdata/plan.json")
	if err != nil {
		t.Fatal(err)
	}
	unknownField := append(bytes.TrimRight(bytes.TrimSpace(good), "}"), []byte(`, "bogus": 1}`)...)
	cases := []struct {
		name, verb string
		body       []byte
		decode     func(io.Reader) error
	}{
		{"route unknown field", "route", unknownField, decodeRoute},
		{"route trailing data", "route", append(append([]byte{}, good...), []byte(`{}`)...), decodeRoute},
		{"plan trailing data", "plan", append(append([]byte{}, goodPlan...), []byte(`[]`)...), decodePlan},
		{"route body to plan", "plan", good, decodePlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantErr := tc.decode(bytes.NewReader(tc.body))
			if wantErr == nil {
				t.Fatal("the api decoder accepts this body; the case tests nothing")
			}
			path := filepath.Join(t.TempDir(), "req.json")
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCLI(tc.verb, []string{path}, nil)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %s)", code, stderr)
			}
			if len(stdout) != 0 {
				t.Errorf("stdout not empty on a rejected request: %s", stdout)
			}
			var e api.ErrorResponse
			if err := json.Unmarshal(stderr, &e); err != nil {
				t.Fatalf("stderr is not an api error body: %v: %s", err, stderr)
			}
			if e.Error != wantErr.Error() {
				t.Errorf("stderr error %q, want the decoder's %q", e.Error, wantErr.Error())
			}
		})
	}

	if code, _, stderr := runCLI("route", []string{filepath.Join(t.TempDir(), "missing.json")}, nil); code == 0 || len(stderr) == 0 {
		t.Errorf("missing file: exit %d, stderr %q; want non-zero with a message", code, stderr)
	}
	for _, args := range [][]string{nil, {"a.json", "b.json"}} {
		if code, _, _ := runCLI("plan", args, nil); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
	}
}

func decodeRoute(r io.Reader) error {
	_, err := api.DecodeRouteRequest(r)
	return err
}

func decodePlan(r io.Reader) error {
	_, err := api.DecodePlanRequest(r)
	return err
}
