module cloudfog/bench

go 1.22

require cloudfog v0.0.0

replace cloudfog => ../
