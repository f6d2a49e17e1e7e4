package cli

import (
	"testing"
)

// TestServeFlagValidation: bad serve flags fail before a port is bound.
func TestServeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"unknown flag":           {"-bogus"},
		"stray arg":              {"extra"},
		"zero cache":             {"-cache-bytes", "0"},
		"negative queue":         {"-queue-depth", "-1"},
		"unknown role":           {"-role", "manager"},
		"worker without join":    {"-role", "worker"},
		"join without worker":    {"-join", "http://localhost:1"},
		"advertise without role": {"-advertise", "http://localhost:1"},
		"coordinator with join":  {"-role", "coordinator", "-join", "http://localhost:1"},
		"bad log format":         {"-log-format", "xml"},
		"store bytes orphaned":   {"-store-max-bytes", "1024"},
		"store age orphaned":     {"-store-max-age", "1h"},
		"zero store budget":      {"-store-dir", dir, "-store-max-bytes", "0"},
		"negative store age":     {"-store-dir", dir, "-store-max-age", "-1h"},
		"unparseable store age":  {"-store-dir", dir, "-store-max-age", "soon"},
	} {
		if _, err := buildServer(args); err == nil {
			t.Errorf("%s: buildServer(%v) accepted bad flags", name, args)
		}
	}
}

// TestServeBuilds: good flags produce a configured node for each role
// without listening.
func TestServeBuilds(t *testing.T) {
	cases := map[string][]string{
		"single":      {"-addr", "localhost:0", "-cache-bytes", "1024", "-queue-depth", "2"},
		"coordinator": {"-addr", "localhost:0", "-role", "coordinator"},
		"worker":      {"-addr", "localhost:0", "-role", "worker", "-join", "http://localhost:1"},
		"with store": {"-addr", "localhost:0", "-store-dir", t.TempDir(),
			"-store-max-bytes", "4096", "-store-max-age", "1h", "-log-format", "json"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			setup, err := buildServer(args)
			if err != nil {
				t.Fatal(err)
			}
			defer setup.node.Close()
			if setup.addr != "localhost:0" {
				t.Fatalf("addr = %q", setup.addr)
			}
			if setup.version == "" {
				t.Fatal("node has no code version")
			}
			if name == "worker" && setup.announce == nil {
				t.Fatal("worker setup has no announce hook")
			}
			if name != "worker" && setup.announce != nil {
				t.Fatalf("%s setup has an announce hook", name)
			}
		})
	}
}
