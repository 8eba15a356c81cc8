//! The program under test, booted through its public API: a
//! [`ShardedRuntime`] behind the program's own [`TcpServer`] on a
//! loopback port.

use evprop_registry::ModelNames;
use evprop_serve::{ShardedRuntime, TcpServer};
use std::net::SocketAddr;
use std::sync::Arc;

pub struct Server {
    pub runtime: Arc<ShardedRuntime>,
    tcp: TcpServer,
}

impl Server {
    pub fn start(
        runtime: Arc<ShardedRuntime>,
        names: Arc<dyn ModelNames + Send + Sync>,
    ) -> Result<Server, String> {
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&runtime), names)
            .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Server { runtime, tcp })
    }

    pub fn addr(&self) -> SocketAddr {
        self.tcp.local_addr()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Disconnect clients and join the accept thread, then join the
        // shard dispatchers.
        self.tcp.stop();
        self.runtime.shutdown();
    }
}
