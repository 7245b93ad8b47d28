//! Runtime micro-kernel dispatch.
//!
//! The GEMM micro-kernel exists in three arms that compute **bit-identical**
//! results (one fused multiply-add per step, same `k` order — the numerical
//! contract in [`super`]):
//!
//! * **Scalar** — the portable Rust loop over `f32::mul_add`, always
//!   available.  Where CPUID reports FMA3 it runs a copy of the same loop
//!   compiled under `target_feature(enable = "fma")`, so a forced-scalar
//!   run issues `vfmadd` instead of calling libm `fmaf` per element; without
//!   hardware FMA the libm call is slow but returns the same bits.
//! * **Avx2** — explicit 256-bit `std::arch` kernel (`_mm256_fmadd_ps`):
//!   the full `MR × NR` accumulator tile lives in twelve `ymm` registers.
//!   Detected only when CPUID reports `avx2` **and** `fma`.
//! * **Avx512** — explicit 512-bit kernel (`_mm512_fmadd_ps`): one `zmm`
//!   register holds a whole `NR`-column accumulator row, and two adjacent
//!   B panels run per call so twelve independent accumulators cover the
//!   FMA latency of both ports.
//!
//! A fused multiply-add is one correctly rounded IEEE-754 operation on
//! every implementation — x86 FMA3, AArch64 `fmla`, libm `fmaf` — so the
//! arms agree bitwise with each other and across machines, which is what
//! lets every distributed-equivalence suite in this workspace run
//! unchanged on any mix of devices.
//!
//! The int8 quantized GEMM ([`super::qgemm`]) has its own arm family
//! ([`QKernelArch`]): scalar / AVX2 / AVX-512 VNNI (`vpdpbusd`).  Integer
//! accumulation is order-independent, so all int8 arms are bit-exact by
//! construction.  The FC GEMV kernels ([`super::gemv`]) run on the same two
//! families under the same contracts.
//!
//! Selection is per *process*: each family is detected once from CPUID and
//! both follow **one request**, a [`KernelArch`] level — `avx512` means the
//! VNNI arm for int8.  The request comes from a [`pin_kernels`] guard if one
//! is live (tests and benches), else from the environment
//! (`DISTREDGE_KERNEL=scalar|avx2|avx512`), else there is none and each
//! family runs the best arm the hardware has.  A request never selects an
//! arm the hardware cannot run: it is clamped to the detected capability of
//! each family.  An *unrecognised* name in the environment panics with the
//! valid names — a typo in CI must not silently un-pin the kernel under
//! test.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One micro-kernel implementation arm, ordered by capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelArch {
    /// Portable Rust loop — always available, the dispatch floor.
    Scalar,
    /// 256-bit `std::arch` kernel (x86-64 with AVX2 and FMA3).
    Avx2,
    /// 512-bit `std::arch` kernel (x86-64 with AVX-512F).
    Avx512,
}

impl KernelArch {
    /// Short lowercase label (`"scalar"`, `"avx2"`, `"avx512"`) for benches
    /// and logs.
    pub fn label(self) -> &'static str {
        match self {
            KernelArch::Scalar => "scalar",
            KernelArch::Avx2 => "avx2",
            KernelArch::Avx512 => "avx512",
        }
    }
}

/// One int8 micro-kernel implementation arm, ordered by capability.
///
/// The int8 GEMM accumulates in `i32`, so every arm computes the identical
/// integer sum — bit-exactness across arms holds by construction, unlike
/// the f32 family where the op sequence is pinned by contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QKernelArch {
    /// Portable Rust loop — always available, the dispatch floor.
    Scalar,
    /// 256-bit `std::arch` kernel (x86-64 with AVX2), exact 32-bit lane
    /// multiplies.
    Avx2,
    /// 512-bit AVX-512 VNNI kernel (`vpdpbusd` u8×i8→i32 dot product).
    Vnni,
}

impl QKernelArch {
    /// Short lowercase label (`"scalar"`, `"avx2"`, `"vnni"`) for benches
    /// and logs.
    pub fn label(self) -> &'static str {
        match self {
            QKernelArch::Scalar => "scalar",
            QKernelArch::Avx2 => "avx2",
            QKernelArch::Vnni => "vnni",
        }
    }
}

/// The int8 arm a request level names.
fn q_level(level: KernelArch) -> QKernelArch {
    match level {
        KernelArch::Scalar => QKernelArch::Scalar,
        KernelArch::Avx2 => QKernelArch::Avx2,
        KernelArch::Avx512 => QKernelArch::Vnni,
    }
}

/// The selection rule, for either family: a request runs clamped to what
/// the hardware can execute, and no request runs the best it has.
fn select<A: Ord>(request: Option<A>, detected: A) -> A {
    match request {
        Some(arch) => arch.min(detected),
        None => detected,
    }
}

/// What the hardware supports for f32, detected once per process.
fn detected() -> KernelArch {
    static DETECTED: OnceLock<KernelArch> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // The 256-bit arm needs both features, and a request can clamp
            // a 512-bit machine down to it, so the 512-bit arm requires them
            // too (every AVX-512 part has them).
            if std::arch::is_x86_feature_detected!("avx2") && hw_fma() {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelArch::Avx512;
                }
                return KernelArch::Avx2;
            }
        }
        KernelArch::Scalar
    })
}

/// What the hardware supports for int8, detected once per process.
fn q_detected() -> QKernelArch {
    static DETECTED: OnceLock<QKernelArch> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return QKernelArch::Vnni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return QKernelArch::Avx2;
            }
        }
        QKernelArch::Scalar
    })
}

/// Whether the scalar arm may run its loop compiled under
/// `target_feature(enable = "fma")` — same bits as the plain copy (both are
/// `f32::mul_add`), hardware `vfmadd` instead of a libm call per element.
#[cfg(target_arch = "x86_64")]
pub(super) fn hw_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// The environment's standing request, read once per process.  An
/// unrecognised `DISTREDGE_KERNEL` value panics: a typo must not silently
/// fall back to auto-detection and un-pin the kernel a CI step meant to
/// test.
fn env_request() -> Option<KernelArch> {
    static ENV: OnceLock<Option<KernelArch>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let v = std::env::var("DISTREDGE_KERNEL").ok()?;
        Some(match v.to_ascii_lowercase().as_str() {
            "scalar" => KernelArch::Scalar,
            "avx2" => KernelArch::Avx2,
            "avx512" => KernelArch::Avx512,
            other => panic!(
                "DISTREDGE_KERNEL={other:?} is not a kernel arm; \
                 valid names: scalar, avx2, avx512"
            ),
        })
    })
}

/// The live pin: 0 = none, else `KernelArch as u8 + 1`.
static PIN: AtomicU8 = AtomicU8::new(0);
/// Held by the live [`KernelPin`], so pins never overlap.
static PIN_LOCK: Mutex<()> = Mutex::new(());

/// The standing request: the live pin, else the environment's.
fn request() -> Option<KernelArch> {
    match PIN.load(Ordering::SeqCst) {
        1 => Some(KernelArch::Scalar),
        2 => Some(KernelArch::Avx2),
        3 => Some(KernelArch::Avx512),
        _ => env_request(),
    }
}

/// Pins both kernel families of this process to `level` (clamped per
/// family to what the hardware runs; int8 reads `Avx512` as its VNNI arm)
/// until the returned guard drops, which restores automatic selection.
/// Test and bench plumbing — takes precedence over the environment.
///
/// The guard holds one process-wide lock, so a second pin waits for the
/// first to drop: a pinned body runs the arm it named even while other
/// threads pin.  Calls that pin nothing still read whatever pin is live.
/// The arm is read once per GEMM / GEMV entry call and passed down, so the
/// worker threads inside one call never see a torn switch.
pub fn pin_kernels(level: KernelArch) -> KernelPin {
    let lock = PIN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    PIN.store(level as u8 + 1, Ordering::SeqCst);
    KernelPin { _lock: lock }
}

/// A live [`pin_kernels`] request; dropping it restores automatic selection.
#[must_use = "the pin lasts only while the guard is alive"]
pub struct KernelPin {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for KernelPin {
    fn drop(&mut self) {
        // Runs before the lock field is released.
        PIN.store(0, Ordering::SeqCst);
    }
}

/// The f32 micro-kernel arm GEMM / GEMV calls will run right now.
pub fn kernel_arch() -> KernelArch {
    select(request(), detected())
}

/// The int8 micro-kernel arm quantized GEMM / GEMV calls will run right now.
pub fn qkernel_arch() -> QKernelArch {
    select(request().map(q_level), q_detected())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_clamps_a_request_to_the_hardware() {
        use KernelArch::*;
        for hw in [Scalar, Avx2, Avx512] {
            assert_eq!(select(None, hw), hw);
            for req in [Scalar, Avx2, Avx512] {
                assert_eq!(select(Some(req), hw), req.min(hw), "{req:?} on {hw:?}");
                assert_eq!(
                    select(Some(q_level(req)), q_level(hw)),
                    q_level(req.min(hw)),
                    "int8 {req:?} on {hw:?}"
                );
            }
        }
        // A 512-bit part without VNNI: an `avx512` request runs int8 on AVX2.
        assert_eq!(
            select(Some(q_level(Avx512)), QKernelArch::Avx2),
            QKernelArch::Avx2
        );
    }

    #[test]
    fn override_clamps_and_restores() {
        // Whatever the hardware, pinning scalar always lands on scalar …
        {
            let _pin = pin_kernels(KernelArch::Scalar);
            assert_eq!(kernel_arch(), KernelArch::Scalar);
        }
        // … and a request above capability clamps instead of mis-dispatching.
        {
            let _pin = pin_kernels(KernelArch::Avx512);
            assert_eq!(kernel_arch(), detected());
        }
        // No pin live now unless another test holds one; take the lock to
        // read the unpinned state.
        let _lock = PIN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(kernel_arch(), select(env_request(), detected()));
    }

    #[test]
    fn qoverride_clamps_and_restores() {
        // The same pin drives the int8 family: `Avx512` reads as its VNNI arm.
        {
            let _pin = pin_kernels(KernelArch::Scalar);
            assert_eq!(qkernel_arch(), QKernelArch::Scalar);
        }
        {
            let _pin = pin_kernels(KernelArch::Avx512);
            assert_eq!(qkernel_arch(), q_detected());
        }
        let _lock = PIN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(
            qkernel_arch(),
            select(env_request().map(q_level), q_detected())
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelArch::Scalar.label(), "scalar");
        assert_eq!(KernelArch::Avx2.label(), "avx2");
        assert_eq!(KernelArch::Avx512.label(), "avx512");
        assert_eq!(QKernelArch::Scalar.label(), "scalar");
        assert_eq!(QKernelArch::Avx2.label(), "avx2");
        assert_eq!(QKernelArch::Vnni.label(), "vnni");
    }
}
