package raftstar

// MaxInflight exposes the pipelining cap to the external tests.
const MaxInflight = maxInflight
