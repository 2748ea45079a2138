module banyan/benchmark

go 1.22

require banyan v0.0.0

replace banyan => ../
