package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/constellation"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-lat", "9.06", "-lon", "7.49", "-name", "kuiper", "-next"})
	if err != nil {
		t.Fatal(err)
	}
	if o.site.LatDeg != 9.06 || o.site.LonDeg != 7.49 || o.name != "kuiper" || !o.next {
		t.Fatalf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{"-lat", "91"},
		{"-lon", "181"},
		{"-hours", "0"},
		{"-hours", "NaN"},
		{"-hours", "Inf"},
		{"-hours", "Inf", "-next"},
		{"-lat", "NaN"},
		{"-lon", "-Inf"},
		{"-nope"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunSingleSatellite(t *testing.T) {
	o, err := parseFlags([]string{"-name", "telesat", "-lat", "47.38", "-lon", "8.54", "-sat", "0", "-hours", "3"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "next 3.0 h:") {
		t.Fatalf("missing pass summary:\n%s", out)
	}
	if !strings.Contains(out, "AOS") || !strings.Contains(out, "culmination") {
		t.Fatalf("missing pass table header:\n%s", out)
	}

	o.sat = 99999
	if err := run(&b, o); err == nil {
		t.Fatal("out-of-range satellite accepted")
	}
}

func TestRunNextPass(t *testing.T) {
	o, err := parseFlags([]string{"-name", "telesat", "-lat", "47.38", "-lon", "8.54", "-next", "-hours", "1"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// A 1,671-satellite constellation always has a pass within the hour.
	if !strings.Contains(out, "next pass over") {
		t.Fatalf("missing next-pass line:\n%s", out)
	}
	if !strings.Contains(out, "duration") {
		t.Fatalf("missing pass table:\n%s", out)
	}
}

// TestBuildNamed checks that every name the -name flag offers builds a
// constellation and that an unknown name is refused.
func TestBuildNamed(t *testing.T) {
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		c, err := constellation.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Size() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if err := run(io.Discard, options{name: "atlantis"}); err == nil {
		t.Fatal("unknown name accepted")
	}
}
