package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/core"
	"wasabi/internal/report"
)

// pinnedJSON holds the report digests pinned for the seed corpus and for
// the trees generated at defaultSeed, keyed by jobInput.key.
//
//go:embed reference.json
var pinnedJSON []byte

// defaultSeed is the -seed whose generated trees have pinned digests.
const defaultSeed = 1

type pinnedFile struct {
	About   string            `json:"about"`
	Digests map[string]string `json:"digests"`
}

func pinnedDigests() (map[string]string, error) {
	var f pinnedFile
	if err := json.Unmarshal(pinnedJSON, &f); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return f.Digests, nil
}

// references returns the expected report digest of every job input the
// workload submits. Inputs over the seed corpus, or over a tree
// generated at defaultSeed, must have a pinned digest; any other input's
// reference is a plain in-process core run at Workers=1 with no cache,
// over the same tree.
func references(w workload, t *tree, seed uint64) (map[string]string, error) {
	pinned, err := pinnedDigests()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, in := range w.inputs(t) {
		key := in.key(t)
		if d, ok := pinned[key]; ok {
			out[key] = d
			continue
		}
		if t.id == "seed" || seed == defaultSeed {
			return nil, fmt.Errorf("reference.json pins no digest for %s", key)
		}
		d, err := referenceDigest(t.appsByCode(in.apps))
		if err != nil {
			return nil, fmt.Errorf("reference run for %s: %w", key, err)
		}
		out[key] = d
	}
	return out, nil
}

// referenceDigest runs the pipeline in-process, sequentially and
// uncached, and returns the digest of its report.
func referenceDigest(apps []corpus.App) (string, error) {
	cr, err := core.New(core.Options{Workers: 1}).RunCorpus(apps)
	if err != nil {
		return "", err
	}
	data, err := report.Marshal(report.Build(cr))
	if err != nil {
		return "", err
	}
	return reportDigest(data)
}
