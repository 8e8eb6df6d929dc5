module nakika/benchmark

go 1.22

require nakika v0.0.0

replace nakika => ../
