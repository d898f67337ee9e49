//! Software prefetch of rows read a few steps later.
//!
//! The build's heap slab (`kiff-graph`'s `SharedKnn`) and the online
//! repair walk (`kiff-online`'s `RepairScorer`) both visit rows at
//! scattered addresses they know several steps before they read them.
//! Asking for a row early hides part of its cache miss behind the rows
//! in between.

/// Asks the CPU to start loading the cache line holding `*ptr`. Any
/// address is fine, dangling or null included: nothing is read.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint: it reads nothing the program can
    // observe and never faults, whatever the address.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>()) }
}

/// A no-op on targets without a prefetch instruction.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn prefetch<T>(_: *const T) {}
