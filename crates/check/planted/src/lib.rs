//! Every function here breaks one house rule; clippy must reject each once.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn expect(x: Option<u8>) -> u8 {
    x.expect("planted")
}

pub fn std_mutex() -> impl Sized {
    std::sync::Mutex::new(0u8)
}

pub fn std_rwlock() -> impl Sized {
    std::sync::RwLock::new(0u8)
}

pub fn unbounded_channel() -> impl Sized {
    crossbeam::channel::unbounded::<u8>()
}

pub fn mpsc_channel() -> impl Sized {
    std::sync::mpsc::channel::<u8>()
}

pub fn spin() {
    std::hint::spin_loop();
}

pub fn unsafe_block() -> u8 {
    let x = 0u8;
    unsafe { *std::ptr::addr_of!(x) }
}
