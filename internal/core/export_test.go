package core

// SetBuild overrides the build identity w keys dynamic runs under,
// standing in for a rebuilt executable.
func SetBuild(w *Wasabi, build string) { w.build = build }
