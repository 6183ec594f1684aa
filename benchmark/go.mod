module dfccl/benchmark

go 1.24

require dfccl v0.0.0

replace dfccl => ../
