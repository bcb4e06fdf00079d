package server

// WrapRunJob routes every job the scheduler starts through wrap, which
// must call run exactly once. External tests use it to hold a job in
// its slot at a gate; call it before Start.
func (s *Server) WrapRunJob(wrap func(run func())) {
	inner := s.runJob
	s.runJob = func(j *job) { wrap(func() { inner(j) }) }
}
